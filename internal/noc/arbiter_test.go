package noc

import (
	"math/bits"
	"math/rand"
	"testing"
)

// newArb returns the allocators' arbiter (arbState) for n requesters —
// the code the VA and SA stages run.
func newArb(n int) *arbState {
	a := new(arbState)
	a.init(n)
	return a
}

// Property: under persistent full load the arbiter serves every slot
// equally over long windows.
func TestArbiterLongRunFairness(t *testing.T) {
	a := newArb(5)
	counts := make([]int, 5)
	for i := 0; i < 1000; i++ {
		counts[a.grantMask(1<<5-1)]++
	}
	for i, c := range counts {
		if c != 200 {
			t.Errorf("slot %d served %d/1000, want 200", i, c)
		}
	}
}

// randomRequests drives a production arbiter and the oracle's textbook
// arbiter with one random request stream and requires
// decision-for-decision agreement. single selects how a lone requester
// reaches the production arbiter: through grantSingle (the allocators'
// sole-candidate path) or through grantMask like any other request.
// Width 64 is the widest router Config.Validate accepts: bit 63
// requests, and a grantSingle(63) leaves the rotor equal to the width.
func randomRequests(t *testing.T, n int, single bool) {
	t.Helper()
	prod, ref := newArb(n), &oRoundRobin{}
	reqs := make([]bool, n)
	rng := rand.New(rand.NewSource(3))
	sawTop, sawFullRotor := false, false
	for round := 0; round < 4000; round++ {
		var mask uint64
		density := 1 + rng.Intn(n) // from crowded to mostly lone requesters
		for i := range reqs {
			if reqs[i] = rng.Intn(density) == 0; reqs[i] {
				mask |= 1 << uint(i)
			}
		}
		want := ref.pick(reqs)
		var got int
		if single && mask != 0 && mask&(mask-1) == 0 {
			got = bits.TrailingZeros64(mask)
			prod.grantSingle(got)
		} else {
			got = prod.grantMask(mask)
		}
		if got != want {
			t.Fatalf("width %d round %d (mask %#x): production grants %d, the oracle's arbiter %d", n, round, mask, got, want)
		}
		sawTop = sawTop || got == n-1
		sawFullRotor = sawFullRotor || prod.next == int32(n)
	}
	if !sawTop || (single && !sawFullRotor) {
		t.Fatalf("width %d: stream never granted bit %d (%v) or never left the rotor at the width (%v)", n, n-1, sawTop, sawFullRotor)
	}
}

// TestGrantSingleEquivalence: grantSingle(i) leaves an arbiter in a
// state indistinguishable from a full arbitration with only bit i set —
// the contract the switch/VC allocators' sole-candidate fast path
// relies on.
func TestGrantSingleEquivalence(t *testing.T) {
	for _, n := range []int{6, 64} {
		randomRequests(t, n, true)
	}
}

// TestGrantMaskEquivalence holds the bitmask arbitration the allocation
// stages run to the oracle's []bool arbiter, at a typical width and at
// the 64-bit edge of the mask.
func TestGrantMaskEquivalence(t *testing.T) {
	t.Run("round-robin", func(t *testing.T) {
		for _, n := range []int{20, 64} {
			randomRequests(t, n, false)
		}
	})
}

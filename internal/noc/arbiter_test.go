package noc

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

// newArb returns the allocators' arbiter (arbState) for n requesters —
// the code the VA and SA stages run.
func newArb(n int) *arbState {
	a := new(arbState)
	a.init(n)
	return a
}

// grantReqs hands a []bool request vector to the arbiter the way the
// stages do, as a bitmask.
func grantReqs(a *arbState, reqs []bool) int {
	var mask uint64
	for i, r := range reqs {
		if r {
			mask |= 1 << uint(i)
		}
	}
	return a.grantMask(mask)
}

func TestRoundRobinRotates(t *testing.T) {
	a := newArb(4)
	all := []bool{true, true, true, true}
	var got []int
	for i := 0; i < 8; i++ {
		got = append(got, grantReqs(a, all))
	}
	want := []int{0, 1, 2, 3, 0, 1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("grants = %v, want %v", got, want)
		}
	}
}

func TestRoundRobinSkipsIdle(t *testing.T) {
	a := newArb(4)
	reqs := []bool{false, true, false, true}
	if g := grantReqs(a, reqs); g != 1 {
		t.Errorf("grant = %d, want 1", g)
	}
	if g := grantReqs(a, reqs); g != 3 {
		t.Errorf("grant = %d, want 3", g)
	}
	if g := grantReqs(a, reqs); g != 1 {
		t.Errorf("grant = %d, want 1 (wrap)", g)
	}
}

func TestRoundRobinEmpty(t *testing.T) {
	a := newArb(3)
	if g := grantReqs(a, []bool{false, false, false}); g != -1 {
		t.Errorf("grant with no requests = %d", g)
	}
	if g := grantReqs(a, nil); g != -1 {
		t.Errorf("grant with nil requests = %d", g)
	}
}

// Property: the arbiter always grants a requesting slot, exactly when
// one exists, and never a non-requesting one.
func TestArbiterSoundness(t *testing.T) {
	a := newArb(8)
	f := func(mask uint8) bool {
		reqs := make([]bool, 8)
		any := false
		for i := 0; i < 8; i++ {
			reqs[i] = mask&(1<<i) != 0
			any = any || reqs[i]
		}
		g := grantReqs(a, reqs)
		if any {
			return g >= 0 && reqs[g]
		}
		return g == -1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// Property: under persistent full load the arbiter serves every slot
// equally over long windows.
func TestArbiterLongRunFairness(t *testing.T) {
	a := newArb(5)
	counts := make([]int, 5)
	all := []bool{true, true, true, true, true}
	for i := 0; i < 1000; i++ {
		counts[grantReqs(a, all)]++
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

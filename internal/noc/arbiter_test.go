package noc

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

// newArb returns the allocators' arbiter (arbState) for n requesters
// under policy p — the code the VA and SA stages run.
func newArb(p ArbPolicy, n int) *arbState {
	a := new(arbState)
	a.init(p, n)
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
	return a.grantMask(mask, make([]bool, a.n))
}

var arbPolicies = []ArbPolicy{ArbRoundRobin, ArbMatrix}

func TestRoundRobinRotates(t *testing.T) {
	a := newArb(ArbRoundRobin, 4)
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
	a := newArb(ArbRoundRobin, 4)
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
	a := newArb(ArbRoundRobin, 3)
	if g := grantReqs(a, []bool{false, false, false}); g != -1 {
		t.Errorf("grant with no requests = %d", g)
	}
	if g := grantReqs(a, nil); g != -1 {
		t.Errorf("grant with nil requests = %d", g)
	}
}

func TestMatrixLeastRecentlyServed(t *testing.T) {
	a := NewMatrix(3)
	all := []bool{true, true, true}
	// Initial priority 0 > 1 > 2; after 0 wins it becomes lowest.
	if g := a.Grant(all); g != 0 {
		t.Fatalf("first grant = %d, want 0", g)
	}
	if g := a.Grant(all); g != 1 {
		t.Fatalf("second grant = %d, want 1", g)
	}
	if g := a.Grant(all); g != 2 {
		t.Fatalf("third grant = %d, want 2", g)
	}
	if g := a.Grant(all); g != 0 {
		t.Fatalf("fourth grant = %d, want 0 again", g)
	}
}

func TestMatrixFavorsStarved(t *testing.T) {
	a := NewMatrix(3)
	// Requester 2 never asks; 0 and 1 alternate wins.
	pair := []bool{true, true, false}
	a.Grant(pair)
	a.Grant(pair)
	// Now 2 requests for the first time: it has beaten nobody but also
	// never lost recently; it must win over the recently served.
	if g := a.Grant([]bool{true, true, true}); g != 2 {
		t.Errorf("starved requester should win, got %d", g)
	}
}

func TestMatrixSingleRequester(t *testing.T) {
	a := NewMatrix(4)
	for i := 0; i < 3; i++ {
		if g := a.Grant([]bool{false, false, true, false}); g != 2 {
			t.Fatalf("sole requester should always win, got %d", g)
		}
	}
}

func TestMatrixWidthMismatchPanics(t *testing.T) {
	a := NewMatrix(3)
	defer func() {
		if recover() == nil {
			t.Errorf("width mismatch should panic")
		}
	}()
	a.Grant([]bool{true})
}

// Property: both arbiters always grant a requesting slot, exactly when
// one exists, and never a non-requesting one.
func TestArbiterSoundness(t *testing.T) {
	rr := newArb(ArbRoundRobin, 8)
	mx := newArb(ArbMatrix, 8)
	f := func(mask uint8) bool {
		reqs := make([]bool, 8)
		any := false
		for i := 0; i < 8; i++ {
			reqs[i] = mask&(1<<i) != 0
			any = any || reqs[i]
		}
		for _, a := range []*arbState{rr, mx} {
			g := grantReqs(a, reqs)
			if any && (g < 0 || !reqs[g]) {
				return false
			}
			if !any && g != -1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// Property: under persistent full load both arbiters are fair within a
// factor of ~1 over long windows.
func TestArbiterLongRunFairness(t *testing.T) {
	for _, policy := range arbPolicies {
		a := newArb(policy, 5)
		counts := make([]int, 5)
		all := []bool{true, true, true, true, true}
		for i := 0; i < 1000; i++ {
			counts[grantReqs(a, all)]++
		}
		for i, c := range counts {
			if c != 200 {
				t.Errorf("%v slot %d served %d/1000, want 200", policy, i, c)
			}
		}
	}
}

// randomRequests drives a production arbiter and the oracle's textbook
// arbiter of the same policy with one random request stream and
// requires decision-for-decision agreement. single selects how a lone
// requester reaches the production arbiter: through grantSingle (the
// allocators' sole-candidate path) or through grantMask like any other
// request. Width 64 is the widest router Config.Validate accepts: bit 63
// requests, and a grantSingle(63) leaves the rotor equal to the width.
func randomRequests(t *testing.T, policy ArbPolicy, n int, single bool) {
	t.Helper()
	prod, ref := newArb(policy, n), newOArbiter(policy, n)
	reqs, scratch := make([]bool, n), make([]bool, n)
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
			got = prod.grantMask(mask, scratch)
		}
		if got != want {
			t.Fatalf("%v width %d round %d (mask %#x): production grants %d, the oracle's arbiter %d", policy, n, round, mask, got, want)
		}
		for _, v := range scratch {
			if v {
				t.Fatalf("round %d: grantMask left scratch dirty", round)
			}
		}
		sawTop = sawTop || got == n-1
		sawFullRotor = sawFullRotor || prod.next == int32(n)
	}
	if !sawTop || (single && policy == ArbRoundRobin && !sawFullRotor) {
		t.Fatalf("%v width %d: stream never granted bit %d (%v) or never left the rotor at the width (%v)", policy, n, n-1, sawTop, sawFullRotor)
	}
}

// TestGrantSingleEquivalence: grantSingle(i) leaves an arbiter in a
// state indistinguishable from a full arbitration with only bit i set —
// the contract the switch/VC allocators' sole-candidate fast path
// relies on.
func TestGrantSingleEquivalence(t *testing.T) {
	for _, policy := range arbPolicies {
		for _, n := range []int{6, 64} {
			randomRequests(t, policy, n, true)
		}
	}
}

// TestGrantMaskEquivalence holds the bitmask arbitration the allocation
// stages run to the oracle's []bool arbiters, for both policies, at a
// typical width and at the 64-bit edge of the mask.
func TestGrantMaskEquivalence(t *testing.T) {
	for _, policy := range arbPolicies {
		t.Run(policy.String(), func(t *testing.T) {
			for _, n := range []int{20, 64} {
				randomRequests(t, policy, n, false)
			}
		})
	}
}

package noc

import (
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

var arbPolicies = []ArbPolicy{ArbRoundRobin, ArbMatrix}

func TestRoundRobinRotates(t *testing.T) {
	a := newArb(ArbRoundRobin, 4)
	all := []bool{true, true, true, true}
	var got []int
	for i := 0; i < 8; i++ {
		got = append(got, a.grant(all))
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
	if g := a.grant(reqs); g != 1 {
		t.Errorf("grant = %d, want 1", g)
	}
	if g := a.grant(reqs); g != 3 {
		t.Errorf("grant = %d, want 3", g)
	}
	if g := a.grant(reqs); g != 1 {
		t.Errorf("grant = %d, want 1 (wrap)", g)
	}
}

func TestRoundRobinEmpty(t *testing.T) {
	a := newArb(ArbRoundRobin, 3)
	if g := a.grant([]bool{false, false, false}); g != -1 {
		t.Errorf("grant with no requests = %d", g)
	}
	if g := a.grant(nil); g != -1 {
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
			g := a.grant(reqs)
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
			counts[a.grant(all)]++
		}
		for i, c := range counts {
			if c != 200 {
				t.Errorf("%v slot %d served %d/1000, want 200", policy, i, c)
			}
		}
	}
}

// Property: grantSingle(i) leaves an arbiter in a state
// indistinguishable from grant with only bit i set — the contract the
// switch/VC allocators' sole-candidate fast path relies on for
// bit-identical results across step modes.
func TestGrantSingleEquivalence(t *testing.T) {
	const n = 6
	for _, policy := range arbPolicies {
		ref, fast := newArb(policy, n), newArb(policy, n)
		rng := uint64(12345)
		next := func() uint64 { rng = rng*6364136223846793005 + 1442695040888963407; return rng >> 33 }
		reqs := make([]bool, n)
		for step := 0; step < 2000; step++ {
			mask := next() % (1 << n)
			count, single := 0, -1
			for i := 0; i < n; i++ {
				reqs[i] = mask&(1<<uint(i)) != 0
				if reqs[i] {
					count++
					single = i
				}
			}
			want := ref.grant(reqs)
			var got int
			if count == 1 {
				fast.grantSingle(single)
				got = single
			} else {
				got = fast.grant(reqs)
			}
			if got != want {
				t.Fatalf("%v step %d (mask %06b): fast path grants %d, reference %d", policy, step, mask, got, want)
			}
		}
	}
}

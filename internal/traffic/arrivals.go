package traffic

import (
	"math"
	"math/rand"
)

// arrivals is an independent Bernoulli(p) arrival process at each of n
// sources, held as each source's next arrival cycle. The gaps between a
// Bernoulli process's arrivals are geometric, so drawing each gap once
// gives the same process in law with one draw per packet instead of one
// per source per cycle, and a cycle before the earliest arrival costs
// one compare.
type arrivals struct {
	next  []int64 // next[i] is source i's next arrival cycle; nil until the first fire
	first int64   // the least of next, 0 before the first fire: no source arrives before it
	lnq   float64 // log1p(-p), the log of a cycle's miss probability; 0 never fires, -Inf always does
	due   []int   // fire's result, reused across cycles
}

// never is the arrival cycle of a source that does not fire.
const never = math.MaxInt64

// fire returns the sources that arrive at cycle, in ascending order, and
// draws each one's next arrival from rng. The first call sets n sources
// at probability p and draws their first arrivals from cycle on; later
// calls take cycles in increasing order and ignore n and p. The result
// is valid until the next call. A cycle before the earliest arrival
// returns at once: fire inlines into its caller and calls scan only at
// an arrival.
func (a *arrivals) fire(cycle int64, rng *rand.Rand, n int, p float64) []int {
	if cycle < a.first {
		return nil
	}
	return a.scan(cycle, rng, n, p)
}

// scan is fire at or after the earliest arrival: it starts the sources
// on the first call, then fires every source due at cycle and sets first
// anew.
func (a *arrivals) scan(cycle int64, rng *rand.Rand, n int, p float64) []int {
	if a.next == nil {
		a.start(cycle, rng, n, p)
	}
	a.due = a.due[:0]
	a.first = never
	for i, t := range a.next {
		if t <= cycle {
			a.due = append(a.due, i)
			t = a.after(cycle, rng)
			a.next[i] = t
		}
		a.first = min(a.first, t)
	}
	return a.due
}

// start draws every source's first arrival at or after cycle (the
// arrival after one at cycle-1); scan then sets first.
func (a *arrivals) start(cycle int64, rng *rand.Rand, n int, p float64) {
	switch {
	case p >= 1:
		a.lnq = math.Inf(-1)
	case p > 0:
		a.lnq = math.Log1p(-p)
	}
	a.next = make([]int64, n)
	for i := range a.next {
		a.next[i] = a.after(cycle-1, rng)
	}
}

// after returns the arrival that follows one at cycle c: c plus a
// geometric gap 1 + ⌊ln U / ln(1-p)⌋ with U = 1 - rng.Float64() in
// (0, 1], since P(gap > k) = P(U ≤ (1-p)^k) = (1-p)^k. p ≥ 1 draws
// nothing and arrives every cycle; p ≤ 0 draws nothing and never does.
func (a *arrivals) after(c int64, rng *rand.Rand) int64 {
	switch {
	case a.lnq == 0:
		return never
	case math.IsInf(a.lnq, -1):
		return c + 1
	}
	g := math.Floor(math.Log(1-rng.Float64()) / a.lnq)
	if g >= 1<<62 { // a gap longer than any run
		return never
	}
	return c + 1 + int64(g)
}

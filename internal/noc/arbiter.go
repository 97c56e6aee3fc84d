package noc

import "math/bits"

// Arbiters. The VA and SA stages arbitrate among up to P*V requesters
// (Table 1 sizes them as 10:1 / 14:1 / 18:1 for the evaluated designs;
// the paper names no policy). Both allocators use a rotating
// round-robin arbiter: strongly fair and deterministic. The allocators
// hold one arbState per output port (SA) and per output VC (VA) in the
// network's flat arbiter array (soa.go).

// arbState is one allocator arbiter: the rotor — the slot after the last
// winner has the highest priority next time. grantMask takes the
// requests as a bitmask over flat VC indices and grantSingle a sole
// requester; both are held to the test-only textbook arbiter of the
// oracle (TestGrantMaskEquivalence, TestGrantSingleEquivalence).
type arbState struct {
	next int32
	n    int32 // request-vector length (wrap point of the rotor)
}

func (a *arbState) init(n int) { a.n = int32(n) }

// grantMask returns the winning index among the set bits of mask — the
// request vector over flat VC indices, at most 64 per router
// (Config.Validate) — or -1 when nobody requests. The rotor scan is a
// shift plus a trailing-zeros count: the lowest requester at or above
// the rotor wins, else the lowest one below it.
func (a *arbState) grantMask(mask uint64) int {
	if m := mask >> uint(a.next); m != 0 {
		// Lowest set bit at index >= next.
		i := int(a.next) + bits.TrailingZeros64(m)
		a.next = int32(i + 1)
		if a.next == a.n {
			a.next = 0
		}
		return i
	}
	if mask == 0 {
		return -1
	}
	// Wrap-around: every set bit is below next, so i+1 <= next <= n; a
	// rotor left at n reads as 0 (the shift above comes out empty).
	i := bits.TrailingZeros64(mask)
	a.next = int32(i + 1)
	return i
}

// grantSingle records a grant to the sole requester i, advancing the
// state exactly like grantMask with only bit i set — except that the
// rotor may be left equal to the requester width instead of wrapped,
// which grantMask's shift treats the same as 0.
func (a *arbState) grantSingle(i int) { a.next = int32(i + 1) }

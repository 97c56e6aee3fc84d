package noc

import "math/bits"

// Arbiters. The VA and SA stages arbitrate among up to P*V requesters
// (Table 1 sizes them as 10:1 / 14:1 / 18:1 for the evaluated designs).
// Two policies are provided: a rotating round-robin arbiter (strongly
// fair, the default for both allocators) and a matrix arbiter
// (least-recently-served, the classic choice for small switch
// allocators). Both are deterministic. The allocators hold one arbState
// per output port (SA) and per output VC (VA) in the network's flat
// arbiter array (soa.go).

// arbState is one allocator arbiter. Under ArbRoundRobin the whole state
// is the rotor — the slot after the last winner has the highest priority
// next time; under ArbMatrix it delegates to a Matrix. grantMask takes
// the requests as a bitmask over flat VC indices and grantSingle a sole
// requester; both are held to the test-only textbook arbiters of the
// oracle (TestGrantMaskEquivalence, TestGrantSingleEquivalence).
type arbState struct {
	next int32
	n    int32 // request-vector length (wrap point of the rotor)
	m    *Matrix
}

func (a *arbState) init(p ArbPolicy, n int) {
	a.n = int32(n)
	if p == ArbMatrix {
		a.m = NewMatrix(n)
	}
}

// grantMask returns the winning index among the set bits of mask — the
// request vector over flat VC indices, at most 64 per router
// (Config.Validate) — or -1 when nobody requests. The rotor scan is a
// shift plus a trailing-zeros count: the lowest requester at or above
// the rotor wins, else the lowest one below it. The matrix policy has
// no mask form, so reqs (the all-false scratch) is materialized around
// the delegated call.
func (a *arbState) grantMask(mask uint64, reqs []bool) int {
	if a.m != nil {
		for m := mask; m != 0; m &= m - 1 {
			reqs[bits.TrailingZeros64(m)] = true
		}
		g := a.m.Grant(reqs)
		for m := mask; m != 0; m &= m - 1 {
			reqs[bits.TrailingZeros64(m)] = false
		}
		return g
	}
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
func (a *arbState) grantSingle(i int) {
	if a.m != nil {
		a.m.GrantSingle(i)
		return
	}
	a.next = int32(i + 1)
}

// Matrix is a least-recently-served arbiter: a triangular priority
// matrix where w[i][j] records that i beats j; the winner's row is
// cleared and column set, making it the lowest priority.
type Matrix struct {
	w [][]bool
}

// NewMatrix returns a matrix arbiter for n requesters, with initial
// priority order 0 > 1 > ... > n-1.
func NewMatrix(n int) *Matrix {
	m := &Matrix{w: make([][]bool, n)}
	for i := range m.w {
		m.w[i] = make([]bool, n)
		for j := i + 1; j < n; j++ {
			m.w[i][j] = true
		}
	}
	return m
}

// Grant returns the index of the winning requester among the set bits
// of reqs (true = requesting), or -1 when nobody requests.
func (m *Matrix) Grant(reqs []bool) int {
	n := len(m.w)
	if len(reqs) != n {
		panic("noc: matrix arbiter request width mismatch")
	}
	winner := -1
	for i := 0; i < n; i++ {
		if !reqs[i] {
			continue
		}
		wins := true
		for j := 0; j < n; j++ {
			if j != i && reqs[j] && !m.w[i][j] {
				wins = false
				break
			}
		}
		if wins {
			winner = i
			break
		}
	}
	if winner >= 0 {
		for j := 0; j < n; j++ {
			if j != winner {
				m.w[winner][j] = false
				m.w[j][winner] = true
			}
		}
	}
	return winner
}

// GrantSingle records a grant to requester i, which the caller knows to
// be the only one: a lone requester wins unopposed, and the priority
// update matches Grant with only bit i set exactly.
func (m *Matrix) GrantSingle(i int) {
	for j := range m.w {
		if j != i {
			m.w[i][j] = false
			m.w[j][i] = true
		}
	}
}

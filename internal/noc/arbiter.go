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
// next time; under ArbMatrix it delegates to a Matrix. Three entry
// points make the same decision on the same requests: grant takes the
// request vector as []bool (the reference stages), grantMask as a
// bitmask (the activity stages; TestGrantMaskEquivalence holds it to
// grant) and grantSingle takes a sole requester
// (TestGrantSingleEquivalence).
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

// grant returns the winning index among the set bits of reqs, or -1 when
// nobody requests. The rotating scan is written as two linear passes
// (next..n, then 0..next) rather than a modulo walk: same grant order,
// no division.
func (a *arbState) grant(reqs []bool) int {
	if a.m != nil {
		return a.m.Grant(reqs)
	}
	for i := int(a.next); i < len(reqs); i++ {
		if reqs[i] {
			a.next = int32(i + 1)
			if int(a.next) == len(reqs) {
				a.next = 0
			}
			return i
		}
	}
	for i := 0; i < int(a.next) && i < len(reqs); i++ {
		if reqs[i] {
			a.next = int32(i + 1)
			return i
		}
	}
	return -1
}

// grantMask is grant with the request vector as a bitmask over flat VC
// indices, for routers of at most 64 flat VCs (wider ones run the
// reference stages, Router.refStages). Bit for bit it makes the same
// decision as grant on the equivalent []bool: the rotor scan becomes a
// shift plus a trailing-zeros count. The matrix policy has no mask form,
// so reqs (the all-false scratch) is materialized around the delegated
// call.
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
		// First pass of grant: lowest set bit at index >= next.
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
	// Wrap-around pass: every remaining set bit is below next. As in
	// grant's second loop, the rotor is not wrapped here.
	i := bits.TrailingZeros64(mask)
	a.next = int32(i + 1)
	return i
}

// grantSingle records a grant to the sole requester i, advancing the
// state exactly like grant with only bit i set. The rotor may
// momentarily equal the requester width; grant's two-pass scan and
// grantMask's shift treat that the same as 0.
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

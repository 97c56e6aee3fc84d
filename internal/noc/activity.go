package noc

import "math/bits"

// Activity tracking. The cycle loop's cost must scale with the traffic
// that exists, not with the network size: at the low-to-mid injection
// rates that dominate the latency-throughput sweeps most routers hold
// zero flits on most cycles. Every input-VC state transition is
// therefore funnelled through Router.setVCState, which maintains
//
//   - three words per router, inRC/inVA/inSA, with bit f set while flat
//     VC f is in the matching non-idle state, so a stage visits exactly
//     the VCs that can act and builds its arbiter requests by masking;
//   - rcDue, the RC delay line: RC never stalls, so a head entering
//     vcRouting in cycle c is filed under parity (c+1)&1 and routed
//     exactly once, by cycle c+1's stepRC, never polled. With look-ahead
//     routing the route was computed upstream, off the critical path:
//     the head is filed under c&1 and routed by cycle c's own RC stage,
//     which runs after VA, so it bids from c+1;
//   - per-shard bitsets of the routers with a non-empty word per stage
//     (actVA, actSA, and actRC per parity) plus the NIs with queued or
//     in-flight packets (actNI), so the cycle loop visits only routers
//     and NIs with pending work. The sets live on the shard stepping the
//     router (shard.go), so concurrent shards never share a bitset word.
//
// Skipping must not change the simulation: the result has to be the one
// a scan of every router, port and VC each cycle would produce — which
// is exactly what the test-only oracle (oracle_test.go) does, and
// FuzzOracle compares the two ejection for ejection. Two properties
// make that hold:
//
//  1. Arbiter state only advances on a grant, and a grant needs a
//     requester — a router with no VC in a stage therefore leaves every
//     arbiter untouched, so skipping it entirely cannot change any
//     later arbitration. Within a visited router the requests are masks
//     over the same flat VC indices a scan would use; a mask has no
//     order, and where a stage acts per VC (stepRC, the SA request
//     build) it walks the set bits in ascending index — scan order.
//  2. Cross-router state only interacts through the event ring, and the
//     only order-sensitive consumer is the ejection callback (float
//     accumulation in Sim). Bitset iteration yields router IDs in
//     ascending order — the order a loop over every router visits them
//     in — so events are appended to each ring slot in that sequence.
//
// CheckInvariants cross-checks every word and bitset against a fresh
// scan of the VC states.

// routerSet is a fixed-capacity bitset over router/NI indices with a
// population count. Iteration (appendMembers) is in ascending index
// order, which the determinism argument above relies on.
type routerSet struct {
	words []uint64
	n     int // population count
}

func newRouterSet(size int) routerSet {
	return routerSet{words: make([]uint64, (size+63)/64)}
}

// add inserts i; it is idempotent.
func (s *routerSet) add(i int) {
	w, b := i>>6, uint64(1)<<(uint(i)&63)
	if s.words[w]&b == 0 {
		s.words[w] |= b
		s.n++
	}
}

// remove deletes i; it is idempotent.
func (s *routerSet) remove(i int) {
	w, b := i>>6, uint64(1)<<(uint(i)&63)
	if s.words[w]&b != 0 {
		s.words[w] &^= b
		s.n--
	}
}

// has reports membership.
func (s *routerSet) has(i int) bool {
	return s.words[i>>6]&(uint64(1)<<(uint(i)&63)) != 0
}

// appendMembers appends the members in ascending order to dst and
// returns it. The cycle snapshots each stage's set into a reusable
// scratch slice before stepping it (shardState.members), so routers may
// enter or leave the set mid-stage without perturbing the iteration.
func (s *routerSet) appendMembers(dst []int32) []int32 {
	for wi, w := range s.words {
		base := int32(wi << 6)
		for w != 0 {
			dst = append(dst, base+int32(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return dst
}

// setVCState moves the VC at flat index f to state s, keeping the
// router's pending words and the shard-level active-router sets in
// sync (a set is touched only when a word empties or fills). Every state
// assignment in the router goes through here; vcState[f] is never
// written directly. A VC leaves vcRouting only in the cycle it is due
// (stepRC), so the parity of the current cycle names its due word.
func (r *Router) setVCState(f int32, s vcState) {
	id, sh, bit := int(r.id), r.sh, uint64(1)<<uint(f)
	switch r.vcState[f] {
	case vcRouting:
		p := r.net.cycle & 1
		r.inRC &^= bit
		if r.rcDue[p] &^= bit; r.rcDue[p] == 0 {
			sh.actRC[p].remove(id)
		}
	case vcWaitVC:
		if r.inVA &^= bit; r.inVA == 0 {
			sh.actVA.remove(id)
		}
	case vcActive:
		if r.inSA &^= bit; r.inSA == 0 {
			sh.actSA.remove(id)
		}
	}
	r.vcState[f] = s
	switch s {
	case vcRouting:
		p := r.net.cycle & 1
		if !r.net.cfg.LookaheadRC {
			p ^= 1
		}
		r.inRC |= bit
		if r.rcDue[p] == 0 {
			sh.actRC[p].add(id)
		}
		r.rcDue[p] |= bit
	case vcWaitVC:
		if r.inVA == 0 {
			sh.actVA.add(id)
		}
		r.inVA |= bit
	case vcActive:
		if r.inSA == 0 {
			sh.actSA.add(id)
		}
		r.inSA |= bit
	}
}

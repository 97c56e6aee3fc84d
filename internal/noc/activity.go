package noc

import "math/bits"

// Activity tracking. The cycle loop's cost must scale with the traffic
// that exists, not with the network size: at the low-to-mid injection
// rates that dominate the latency-throughput sweeps most routers hold
// zero flits on most cycles, and rescanning every port x VC of every
// router per stage wastes almost all of the work. Instead, every
// input-VC state transition is funnelled through Router.setVCState,
// which maintains
//
//   - per-router dense lists of the flat VC indices currently in each
//     non-idle state (listRC/listVA/listSA, with listPos for O(1)
//     swap-removal), so the stage functions visit only VCs that can
//     possibly act, and
//   - per-shard bitsets of the routers owning a non-empty list per
//     stage (actRC/actVA/actSA) plus the NIs with queued or in-flight
//     packets (actNI), so the cycle loop visits only routers and NIs
//     with pending work. The sets live on the shard stepping the router
//     (shard.go), so concurrent shards never touch a shared bitset word.
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
//     later arbitration. Within a visited router the requests are built
//     over the same flat VC indices a scan would use, and they reach
//     the arbiters as a set (a bitmask), so the order the pending lists
//     happen to hold them in is invisible.
//  2. Cross-router state only interacts through the event ring, and the
//     only order-sensitive consumer is the ejection callback (float
//     accumulation in Sim). Bitset iteration yields router IDs in
//     ascending order — the order a loop over every router visits them
//     in — so events are appended to each ring slot in that sequence.
//
// CheckInvariants cross-checks every list, position index, pending
// count and bitset against a fresh scan of the VC states.

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

// listAdd appends flat VC index f to list, recording its position.
func (r *Router) listAdd(list []int32, f int32) []int32 {
	r.listPos[f] = int32(len(list))
	return append(list, f)
}

// listRemove swap-removes flat VC index f from list.
func (r *Router) listRemove(list []int32, f int32) []int32 {
	p := r.listPos[f]
	last := int32(len(list) - 1)
	moved := list[last]
	list[p] = moved
	r.listPos[moved] = p
	r.listPos[f] = -1
	return list[:last]
}

// setVCState moves the VC at flat index f to state s, keeping the
// per-stage pending lists and the shard-level active-router sets in
// sync. Every state assignment in the router goes through here;
// vcState[f] is never written directly.
func (r *Router) setVCState(f int32, s vcState) {
	id := int(r.id)
	sh := r.sh
	switch r.vcState[f] {
	case vcRouting:
		r.listRC = r.listRemove(r.listRC, f)
		if len(r.listRC) == 0 {
			sh.actRC.remove(id)
		}
	case vcWaitVC:
		r.listVA = r.listRemove(r.listVA, f)
		if len(r.listVA) == 0 {
			sh.actVA.remove(id)
		}
	case vcActive:
		r.listSA = r.listRemove(r.listSA, f)
		if len(r.listSA) == 0 {
			sh.actSA.remove(id)
		}
	}
	r.vcState[f] = s
	switch s {
	case vcRouting:
		r.listRC = r.listAdd(r.listRC, f)
		sh.actRC.add(id)
	case vcWaitVC:
		r.listVA = r.listAdd(r.listVA, f)
		sh.actVA.add(id)
	case vcActive:
		r.listSA = r.listAdd(r.listSA, f)
		sh.actSA.add(id)
	}
}

package noc

import (
	"fmt"

	"mira/internal/topology"
)

// Struct-of-arrays router state. The router pipeline's hot state — VC
// ring buffers, VC control scalars (state, head/length, route, ready
// cycle), output credits and reservations, arbiter rotors and per-port
// route masks — lives in contiguous per-Network arrays, one allocation
// per kind, indexed by flat (router, port, vc). (The pending sets are
// single words and sit in the Router header itself.)
// Stage loops therefore walk dense typed slices instead of chasing
// pointers across per-router/per-port/per-VC heap objects, which is
// what dominated per-cycle cost at high injection rates once
// allocations (PR 1) and idle work (PR 2) were gone.
//
// # Index math
//
// Routers may have different port counts (mesh edges, express and
// vertical links), so each router r is assigned two base offsets at
// construction time:
//
//	vcBase(r)   — r's first slot in every per-VC array
//	portBase(r) — r's first slot in every per-port array
//
// Within a router, input and output ports share indices (topologies are
// symmetric), and the local flat VC index is f = pi*VCs + vi, exactly
// the request index the VA/SA arbiters have always used. The global
// slots are then vcBase(r)+f for per-VC arrays, portBase(r)+oi for
// per-port arrays, and (portBase(r)+oi)*VCs+ov for per-(output
// port, VC) arrays. VC f's ring storage is the fixed-size window
// bufs[(vcBase(r)+f)*BufDepth : ...+BufDepth].
//
// # Ownership: arrays are the state, the object graph is a view
//
// Network.soa owns the backing arrays. Each Router holds sub-slices of
// them covering exactly its own window (bound once in NewNetwork), so
// router code keeps indexing by local f with no base arithmetic, and
// the per-router views alias — not copy — the flat state. inputPort
// and outputPort survive as construction/observability views carrying
// only topology metadata (direction, link, upstream) plus, on the
// output side, credit/reserved sub-slices that alias the same backing
// arrays. The two representations cannot diverge because there is only
// one storage location per datum; TestSoAViewAliasing pins this by
// mutating through one representation and reading through the other.
//
// # Why bit-identity holds
//
// The flattening moves bytes, not decisions: every stage loop visits
// the same (router, port, vc) tuples in the same order as before, the
// arbiters receive identical request vectors over identical flat
// indices (arbState, arbiter.go), and cross-router
// interaction still flows exclusively through the event ring. The VC
// ring buffer replaces the old append/compact slice but preserves
// FIFO order and the arrived-cycle tags, so eligibility tests see the
// same values. The checked step mode and the golden determinism tests
// verify the result streams are byte-identical across all step modes,
// pipeline variants and worker counts.
type soaState struct {
	// Per-VC control scalars, indexed by vcBase(r) + pi*VCs + vi.
	vcState []vcState
	vcHead  []int32 // ring read position, in [0, BufDepth)
	vcLen   []int32 // ring occupancy, in [0, BufDepth]
	// vcReadyAt is the first cycle a head routed on arrival (look-ahead)
	// may bid in VA; never written otherwise, so every waiter is ready.
	vcReadyAt []int64
	// vcFrontAt caches the arrival cycle of each VC's front flit (valid
	// while occupancy > 0, maintained by vcPush/vcArrive/vcDrop), so the SA
	// eligibility scan reads one dense lane instead of chasing into the
	// ring storage; CheckInvariants cross-checks it against the ring.
	vcFrontAt []int64
	vcOutDir  []topology.Dir
	vcOutPort []int8 // routed output port index, -1 until RC
	vcOutVC   []int8 // allocated output VC, valid while active
	// vcClass records the routed head's message class per VC; the VA
	// request build reads its one-word summary, Router.dataVCs, which
	// CheckInvariants rebuilds from this lane.
	vcClass []Class
	// vcInFly counts flits already written into the VC's ring slots by
	// an upstream forward but not yet delivered (the event ring holds
	// their arrival notices). Occupancy-wise they are invisible until
	// delivery; the count positions the next upstream write.
	vcInFly []int8

	// Ring storage: BufDepth slots per VC, flits and arrival cycles in
	// parallel arrays so eligibility scans touch only the int64 lane.
	bufFlit    []Flit
	bufArrived []int64

	// Per-(output port, VC) flow control, indexed by
	// (portBase(r)+oi)*VCs + ov.
	reserved []bool
	credits  []int32

	// Arbiter state, indexed by (portBase(r)+oi)*(1+VCs): the SA
	// arbiter first, then the VCs' VA arbiters. Round-robin rotors live
	// inline; matrix arbiters hang off a pointer (their n x n priority
	// state has no fixed-size slot).
	arbs []arbState

	// serFree is the per-output-port link-class lane: the first cycle
	// the port's serializing d2d link is free again. Only ports flagged
	// in Router.serMask ever read or write it.
	serFree []int64
	// routeTo is the per-output-port route mask lane, indexed by
	// portBase(r) + oi (Router.routeTo).
	routeTo []uint64

	portOf, vcOf []int8
	// ownerOf maps a global flat VC index back to its router's index,
	// so event delivery decodes an int32 arrival word without any
	// per-event metadata.
	ownerOf    []int32
	reqScratch []bool
}

// newSoAState allocates the flat arrays for totalVCs flat VC slots and
// totalPorts ports under the given configuration.
func newSoAState(cfg *Config, totalVCs, totalPorts int) soaState {
	pv := totalPorts * cfg.VCs
	st := soaState{
		vcState:    make([]vcState, totalVCs),
		vcHead:     make([]int32, totalVCs),
		vcLen:      make([]int32, totalVCs),
		vcReadyAt:  make([]int64, totalVCs),
		vcFrontAt:  make([]int64, totalVCs),
		vcOutDir:   make([]topology.Dir, totalVCs),
		vcOutPort:  make([]int8, totalVCs),
		vcOutVC:    make([]int8, totalVCs),
		vcClass:    make([]Class, totalVCs),
		vcInFly:    make([]int8, totalVCs),
		bufFlit:    make([]Flit, totalVCs*cfg.BufDepth),
		bufArrived: make([]int64, totalVCs*cfg.BufDepth),
		reserved:   make([]bool, pv),
		credits:    make([]int32, pv),
		arbs:       make([]arbState, totalPorts*(1+cfg.VCs)),
		serFree:    make([]int64, totalPorts),
		routeTo:    make([]uint64, totalPorts),
		portOf:     make([]int8, totalVCs),
		vcOf:       make([]int8, totalVCs),
		ownerOf:    make([]int32, totalVCs),
		reqScratch: make([]bool, totalVCs),
	}
	return st
}

// saArb returns the switch arbiter of output port oi.
func (r *Router) saArb(oi int) *arbState { return &r.arbs[oi*(1+r.vcsPerPort)] }

// vaArb returns the VA arbiter of output VC ov on port oi.
func (r *Router) vaArb(oi, ov int) *arbState { return &r.arbs[oi*(1+r.vcsPerPort)+1+ov] }

// VC ring-buffer operations. Each VC owns a fixed window of BufDepth
// slots; head/len advance modulo the depth (written as compare-and-
// subtract — no division). Fixed capacity is itself an invariant: the
// old slice-backed buffers were allocated at 2x depth and relied on
// credit accounting alone to stay within depth, whereas the ring makes
// an overflow physically impossible to store, so vcPush panics with
// the exact (router, port, vc) coordinates on any credit bug.

// vcOcc returns the buffer occupancy in flits of local flat VC f (what
// credits account against).
func (r *Router) vcOcc(f int) int { return int(r.vcLen[f]) }

// vcFrontFlit returns a pointer to the oldest buffered flit of VC f,
// or nil when empty.
func (r *Router) vcFrontFlit(f int) *Flit {
	if r.vcLen[f] == 0 {
		return nil
	}
	return &r.bufFlit[f*r.bufDepth+int(r.vcHead[f])]
}

// vcFrontArrived returns the arrival cycle of the oldest buffered flit
// of VC f; the caller guarantees occupancy. It reads the dense front
// cache rather than the ring storage.
func (r *Router) vcFrontArrived(f int) int64 {
	return r.vcFrontAt[f]
}

// vcPush appends a flit to VC f's ring. Overflow means a credit
// accounting bug upstream; the panic names the exact buffer. Two paths
// push: the NI injection path (local-port VCs, which never carry link
// traffic) and cross-shard mailbox delivery (a channel fed from another
// shard never holds send-time reservations, so vcInFly stays 0 on it) —
// in both cases vcLen alone positions the slot and can never collide
// with a slot forward reserved.
func (r *Router) vcPush(f int, flit Flit, arrivedAt int64) {
	if int(r.vcLen[f]) >= r.bufDepth {
		pi, vi := f/r.vcsPerPort, f%r.vcsPerPort
		panic(fmt.Sprintf("noc: router %d port %d (%v) vc %d buffer overflow (credit bug)",
			r.id, pi, r.inPorts[pi].dir, vi))
	}
	slot := int(r.vcHead[f]) + int(r.vcLen[f])
	if slot >= r.bufDepth {
		slot -= r.bufDepth
	}
	r.bufFlit[f*r.bufDepth+slot] = flit
	r.bufArrived[f*r.bufDepth+slot] = arrivedAt
	if r.vcLen[f] == 0 {
		r.vcFrontAt[f] = arrivedAt
	}
	r.vcLen[f]++
}

// reserveOverflow reconstructs the (router, port, vc) coordinates of
// the global VC slot forward found full and panics, matching vcPush's
// message; it is a function of its own to keep the panic's formatting
// out of forward's hot path.
func (n *Network) reserveOverflow(gi int32) {
	r := &n.routers[n.soa.ownerOf[gi]]
	fi := int(gi - r.vcBase)
	pi, vi := fi/r.vcsPerPort, fi%r.vcsPerPort
	panic(fmt.Sprintf("noc: router %d port %d (%v) vc %d buffer overflow (credit bug)",
		r.id, pi, r.inPorts[pi].dir, vi))
}

// vcArrive exposes the oldest in-flight flit of VC f (written earlier
// by the upstream forward) as buffered, returning a pointer to it. The
// caller is shardCycle's delivery of the arrival word, at exactly the
// cycle forward stamped as its arrival.
func (r *Router) vcArrive(f int) *Flit {
	slot := int(r.vcHead[f]) + int(r.vcLen[f])
	if slot >= r.bufDepth {
		slot -= r.bufDepth
	}
	r.vcInFly[f]--
	if r.vcLen[f] == 0 {
		r.vcFrontAt[f] = r.bufArrived[f*r.bufDepth+slot]
	}
	r.vcLen[f]++
	return &r.bufFlit[f*r.bufDepth+slot]
}

// vcDrop removes the front flit of VC f without copying it out; the
// forward path reads it in place (vcFrontFlit) first.
func (r *Router) vcDrop(f int) {
	head := int(r.vcHead[f]) + 1
	if head == r.bufDepth {
		head = 0
	}
	r.vcHead[f] = int32(head)
	r.vcLen[f]--
	if r.vcLen[f] > 0 {
		r.vcFrontAt[f] = r.bufArrived[f*r.bufDepth+head]
	}
}

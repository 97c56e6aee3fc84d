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
// single words and sit in the Router header itself.) Stage loops
// therefore walk dense typed slices, not per-VC heap objects.
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
// indices (arbState, arbiter.go), and cross-router interaction flows
// only through the ring slots and the event ring. The ring keeps FIFO
// order and the arrived-cycle tags, so eligibility tests see the same
// values.
//
// # Landing by cycle
//
// A same-shard link flit is written downstream at send time and lands
// at its bufArrived cycle with no delivery work; until then it is on
// the wire. Only a head schedules an arrival word (Network.deliver).
type soaState struct {
	// Per-VC control scalars, indexed by vcBase(r) + pi*VCs + vi.
	vcState []vcState
	vcHead  []int32 // ring read position, in [0, BufDepth)
	// vcLen counts the flits written into the ring, landed or still on
	// the wire, in [0, BufDepth]: what credits account against and what
	// positions the next write.
	vcLen []int32
	// vcReadyAt is the first cycle a head routed on arrival (look-ahead)
	// may bid in VA; never written otherwise, so every waiter is ready.
	vcReadyAt []int64
	// vcFrontAt caches the arrival cycle of each VC's front flit (valid
	// while vcLen > 0, maintained by vcPush/forward/vcDrop), which may
	// lie in the future while the front is on the wire, so the SA
	// eligibility test vcFrontAt < cycle reads one dense lane instead of
	// chasing into the ring storage; CheckInvariants cross-checks it.
	vcFrontAt []int64
	vcOutDir  []topology.Dir
	vcOutPort []int8 // routed output port index, -1 until RC
	vcOutVC   []int8 // allocated output VC, valid while active
	// vcClass records the routed head's message class per VC; the VA
	// request build reads its one-word summary, Router.dataVCs, which
	// CheckInvariants rebuilds from this lane.
	vcClass []Class

	// Ring storage: BufDepth slots per VC, flits and arrival cycles in
	// parallel arrays so eligibility scans touch only the int64 lane.
	bufFlit    []Flit
	bufArrived []int64

	// Per-(output port, VC) flow control, indexed by
	// (portBase(r)+oi)*VCs + ov.
	reserved []bool
	credits  []int32

	// Arbiter state, indexed by (portBase(r)+oi)*(1+VCs): the SA
	// arbiter first, then the VCs' VA arbiters.
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
	ownerOf []int32
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
	}
	return st
}

// saArb returns the switch arbiter of output port oi.
func (r *Router) saArb(oi int) *arbState { return &r.arbs[oi*(1+r.vcsPerPort)] }

// vaArb returns the VA arbiter of output VC ov on port oi.
func (r *Router) vaArb(oi, ov int) *arbState { return &r.arbs[oi*(1+r.vcsPerPort)+1+ov] }

// VC ring-buffer operations. Each VC owns a fixed window of BufDepth
// slots; head/len advance modulo the depth (written as compare-and-
// subtract — no division). Fixed capacity makes an overflow impossible
// to store, so both write paths panic with the exact (router, port,
// vc) coordinates on any credit bug.

// vcLanded returns the flits of local flat VC f that have landed by
// cycle: vcLen less the ring suffix still on the wire (arrival cycles
// rise along the ring, so the suffix is found from the back).
func (r *Router) vcLanded(f int, cycle int64) int {
	n := int(r.vcLen[f])
	for ; n > 0; n-- {
		slot := int(r.vcHead[f]) + n - 1
		if slot >= r.bufDepth {
			slot -= r.bufDepth
		}
		if r.bufArrived[f*r.bufDepth+slot] <= cycle {
			break
		}
	}
	return n
}

// vcFrontFlit returns a pointer to the oldest written flit of VC f
// (landed unless vcFrontAt says otherwise), or nil when empty.
func (r *Router) vcFrontFlit(f int) *Flit {
	if r.vcLen[f] == 0 {
		return nil
	}
	return &r.bufFlit[f*r.bufDepth+int(r.vcHead[f])]
}

// vcPush appends a landed flit to VC f's ring. Overflow means a credit
// accounting bug upstream; the panic names the exact buffer. Two paths
// push: the NI injection path (local-port VCs, which never carry link
// traffic) and cross-shard mailbox delivery (a channel fed from another
// shard never holds send-time writes) — so a pushed VC holds no flit
// on the wire.
func (r *Router) vcPush(f int, flit Flit, arrivedAt int64) {
	if int(r.vcLen[f]) >= r.bufDepth {
		r.net.vcOverflow(r.vcBase + int32(f))
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

// vcOverflow panics naming the (router, port, vc) of global VC gi, which
// a write found full; it is a function of its own to keep the panic's
// formatting out of the write paths.
func (n *Network) vcOverflow(gi int32) {
	r := &n.routers[n.soa.ownerOf[gi]]
	fi := int(gi - r.vcBase)
	pi, vi := fi/r.vcsPerPort, fi%r.vcsPerPort
	panic(fmt.Sprintf("noc: router %d port %d (%v) vc %d buffer overflow (credit bug)",
		r.id, pi, r.inPorts[pi].dir, vi))
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

package noc

import (
	"fmt"
	"math/bits"

	"mira/internal/routing"
	"mira/internal/topology"
)

// vcState is the input-VC control state machine: a head flit performs
// route computation (RC), then virtual-channel allocation (VA), then the
// whole packet streams through switch allocation (SA) until the tail
// releases the channel.
type vcState uint8

const (
	vcIdle vcState = iota
	vcRouting
	vcWaitVC
	vcActive
)

func (s vcState) String() string {
	switch s {
	case vcIdle:
		return "idle"
	case vcRouting:
		return "routing"
	case vcWaitVC:
		return "wait-vc"
	default:
		return "active"
	}
}

// inputPort is the construction/observability view of one input port.
// The VC state behind it lives in the network's flat arrays (soa.go);
// the view carries only the topology metadata the hot loops read per
// forwarded flit.
type inputPort struct {
	dir topology.Dir
	// upstream is the neighbouring router feeding this port, or -1 for
	// the local NI; credits for popped flits return to it.
	upstream topology.NodeID
	// upCredBase is the global index (into the network's flat credits
	// array) of the upstream router's credit counter for this channel's
	// vc 0, precomputed so the forward path schedules a credit return as
	// a single int32. -1 for the local port.
	upCredBase int32
	// credLane is the credit lane from this router's shard toward the
	// upstream router's, mail[shard][upstream's shard].cred: it shares
	// the lane matrix's ring, so credit returns append to it directly.
	// nil for the local port.
	credLane [][]int32
	// credDelta is the credit-return delay toward the upstream router:
	// the latency plus serialization of the reverse channel this
	// router's credits travel (1 for on-chip links — the historical
	// fixed delay). Precomputed at construction from the topology.
	credDelta int64
}

// outputPort is the construction/observability view of one output port:
// topology metadata only, its flow-control state lives in the flat
// arrays (Router.reserved and Router.credits).
type outputPort struct {
	dir     topology.Dir
	link    topology.Link // zero unless dir != Local
	hasLink bool
	// downVCBase is the global flat VC index of the downstream input
	// channel's vc 0 (the port this link lands on), precomputed so the
	// forward path reserves the destination slot and schedules the
	// arrival event from a single add. -1 for the local port.
	downVCBase int32
	// downShard is the shard owning the downstream router (this
	// router's own shard for the local port). Forwards staying inside
	// the shard direct-write the flit into the downstream ring slot;
	// forwards that cross it carry the flit through the lane toward
	// its shard (shard.go).
	downShard int32
	// down is the downstream router, where a direct write counts its
	// buffer write (nil for the local port).
	down *Router
	// arriveDelta is the cycles from a switch-allocation grant until
	// the flit lands in the downstream buffer: STLTCycles - 1 pipeline
	// cycles plus the link's latency plus its serialization tail
	// (SerCycles - 1). For on-chip links (latency 1, ser 1) this equals
	// STLTCycles — the historical fixed delay.
	arriveDelta int64
	// serCycles is the cycles a flit occupies this port's link while
	// serialized across it (1 for full-width links); ports with
	// serCycles > 1 are marked in Router.serMask and gate switch
	// allocation on the link being free (soa serFree lane).
	serCycles int64
}

// Router is one network router instance: the per-router view over the
// network's struct-of-arrays state. Every slice below whose comment
// says "window" is a sub-slice of the corresponding flat array in
// Network.soa covering exactly this router's slots, indexed by the
// local flat VC index f = pi*VCs + vi (or by port index); see soa.go
// for the layout and ownership rules.
type Router struct {
	id  topology.NodeID
	net *Network
	// sh is the shard stepping this router; the forward path schedules
	// into its rings and the probe emission sites buffer into it.
	// shard caches sh.idx for the same-shard test per forwarded flit.
	sh       *shardState
	shard    int32
	inPorts  []inputPort
	outPorts []outputPort
	inIndex  [topology.NumDirs]int8 // dir -> port index, -1 if absent
	outIndex [topology.NumDirs]int8
	// linkMask has bit oi set when output port oi drives a link (every
	// port except Local); the SA credit check tests the bit instead of
	// loading outputPort.hasLink.
	linkMask uint32
	// serMask has bit oi set when output port oi's link serializes
	// flits (serCycles > 1); only those ports pay the serFree check in
	// the allocation stages, so fully parallel fabrics — every shipped
	// single-chip design — keep the historical hot path.
	serMask uint32
	// algDOR is set when Config.Alg is dimension-ordered routing,
	// letting routeHead call it directly instead of through the
	// interface (the per-head dispatch is measurable at high load).
	algDOR bool
	// cnt counts a buffer write at send time, flits still on the wire
	// included, and its weight as active layers in bufLayers, an exact
	// integer in any write order; Counters reports both by landing.
	cnt       Counters
	bufLayers int64

	// vcsPerPort/bufDepth cache Config.VCs and Config.BufDepth;
	// vcBase is the router's global base slot in the per-VC arrays and
	// credBase its base in the flat per-(output port, VC) credit array.
	vcsPerPort int
	bufDepth   int
	vcBase     int32
	credBase   int32

	// Per-VC control state (windows; see soaState for field meanings).
	vcState   []vcState
	vcHead    []int32
	vcLen     []int32
	vcFrontAt []int64
	vcOutDir  []topology.Dir
	vcOutPort []int8
	vcOutVC   []int8
	vcClass   []Class

	// VC ring storage (windows, BufDepth slots per VC).
	bufFlit    []Flit
	bufArrived []int64

	// Output flow control (windows, indexed oi*VCs+ov) and arbiter
	// state (window, indexed oi*(1+VCs) for SA, +1+ov for VA).
	reserved []bool
	credits  []int32
	arbs     []arbState

	// claimCycle/claimIn/claimOut are the router's switch claims: the
	// input VCs (every VC of a claimed input port) and output ports taken
	// in cycle claimCycle, shared between the switch allocator and the
	// speculative forwards issued during VA. A triple stamped with an
	// earlier cycle is empty, so no per-cycle clearing pass is needed.
	claimCycle int64
	claimIn    uint64
	claimOut   uint32
	// serFree[oi] is the first cycle output port oi's serializing link
	// is free again (window; meaningful only for serMask ports, where
	// forward stamps cycle + serCycles).
	serFree []int64

	// portOf/vcOf invert the flat VC index without divisions (windows).
	portOf []int8
	vcOf   []int8
	// The pending sets, one machine word each over flat VC indices
	// (Config.Validate holds a router to 64): inRC, inVA and inSA have bit
	// f set while VC f is in vcRouting, vcWaitVC and vcActive, and
	// rcDue[p] is the part of inRC that stepRC routes in the next cycle
	// of parity p. setVCState is their only writer (activity.go).
	inRC, inVA, inSA uint64
	rcDue            [2]uint64
	// routeTo[oi] (window) has bit f set iff vcOutPort[f] == oi and
	// dataVCs iff vcClass[f] == Data; routeHead keeps both, so a port's
	// VA request set is one AND. Bits of VCs outside inVA/inSA are stale
	// and always masked off.
	routeTo []uint64
	dataVCs uint64
	// portVCs has the low vcsPerPort bits set: shifted to an input port's
	// first flat VC it is that port's share of claimIn.
	portVCs uint64
}

// initRouter builds the port metadata view for node id in place (the
// routers live in the network's contiguous value slice). The flat state
// windows are attached afterwards by bind, once the network has sized
// its arrays across all routers.
func initRouter(r *Router, net *Network, id topology.NodeID) {
	r.id, r.net = id, net
	r.vcsPerPort, r.bufDepth = net.cfg.VCs, net.cfg.BufDepth
	for i := range r.inIndex {
		r.inIndex[i] = -1
		r.outIndex[i] = -1
	}
	cfg := &net.cfg
	for _, d := range cfg.Topo.Ports(id) {
		// Output side.
		op := outputPort{dir: d, arriveDelta: int64(cfg.STLTCycles), serCycles: 1}
		if d != topology.Local {
			l, ok := cfg.Topo.OutLink(id, d)
			if !ok {
				panic(fmt.Sprintf("noc: router %d missing link on port %v", id, d))
			}
			op.link = l
			op.hasLink = true
			// ST+LT-1 pipeline cycles, then the link's latency, then
			// the serialization tail; on-chip (1, 1) collapses to the
			// historical STLTCycles.
			op.arriveDelta = int64(cfg.STLTCycles-1) + int64(l.Latency) + int64(l.SerCycles) - 1
			op.serCycles = int64(l.SerCycles)
		}
		r.outIndex[d] = int8(len(r.outPorts))
		r.outPorts = append(r.outPorts, op)

		// Input side (topologies are symmetric: every output direction
		// has a matching input).
		ip := inputPort{dir: d, upstream: -1, credDelta: 1}
		if d != topology.Local {
			l, ok := cfg.Topo.OutLink(id, d)
			if !ok {
				panic(fmt.Sprintf("noc: router %d missing reverse link on port %v", id, d))
			}
			ip.upstream = l.Dst
			// Credits popped from this port return to the upstream over
			// the reverse channel — the very link l (id -> upstream) —
			// and pay its latency and serialization; 1 for on-chip.
			ip.credDelta = int64(l.Latency) + int64(l.SerCycles) - 1
		}
		r.inIndex[d] = int8(len(r.inPorts))
		r.inPorts = append(r.inPorts, ip)
	}
}

// bind attaches the router's windows of the network's flat arrays
// (vcBase/portBase are its first slots in the per-VC and per-port
// arrays) and initializes its slice of the state: credits, arbiters and
// the flat-index inverse maps.
func (r *Router) bind(st *soaState, vcBase, portBase int) {
	cfg := &r.net.cfg
	nP := len(r.inPorts)
	nVC := nP * cfg.VCs
	r.vcBase = int32(vcBase)

	r.vcState = st.vcState[vcBase : vcBase+nVC]
	r.vcHead = st.vcHead[vcBase : vcBase+nVC]
	r.vcLen = st.vcLen[vcBase : vcBase+nVC]
	r.vcFrontAt = st.vcFrontAt[vcBase : vcBase+nVC]
	r.vcOutDir = st.vcOutDir[vcBase : vcBase+nVC]
	r.vcOutPort = st.vcOutPort[vcBase : vcBase+nVC]
	r.vcOutVC = st.vcOutVC[vcBase : vcBase+nVC]
	r.vcClass = st.vcClass[vcBase : vcBase+nVC]
	r.bufFlit = st.bufFlit[vcBase*cfg.BufDepth : (vcBase+nVC)*cfg.BufDepth]
	r.bufArrived = st.bufArrived[vcBase*cfg.BufDepth : (vcBase+nVC)*cfg.BufDepth]

	pv := portBase * cfg.VCs
	r.credBase = int32(pv)
	r.reserved = st.reserved[pv : pv+nVC]
	r.credits = st.credits[pv : pv+nVC]
	r.arbs = st.arbs[portBase*(1+cfg.VCs) : (portBase+nP)*(1+cfg.VCs)]
	r.serFree = st.serFree[portBase : portBase+nP]
	r.routeTo = st.routeTo[portBase : portBase+nP]
	r.portVCs = 1<<uint(cfg.VCs) - 1

	_, r.algDOR = cfg.Alg.(routing.DOR)
	r.portOf = st.portOf[vcBase : vcBase+nVC]
	r.vcOf = st.vcOf[vcBase : vcBase+nVC]

	for f := 0; f < nVC; f++ {
		r.vcOutPort[f] = -1
		r.portOf[f] = int8(f / cfg.VCs)
		r.vcOf[f] = int8(f % cfg.VCs)
	}
	for oi := range r.outPorts {
		op := &r.outPorts[oi]
		base := oi * cfg.VCs
		if op.hasLink {
			r.linkMask |= 1 << uint(oi)
			for v := 0; v < cfg.VCs; v++ {
				r.credits[base+v] = int32(cfg.BufDepth)
			}
			if op.serCycles > 1 {
				r.serMask |= 1 << uint(oi)
			}
		}
		r.saArb(oi).init(nVC)
		for ov := 0; ov < cfg.VCs; ov++ {
			r.vaArb(oi, ov).init(nVC)
		}
	}
}

// flatVC maps (input port, vc) to the flattened request index.
func (r *Router) flatVC(pi, vi int) int { return pi*r.vcsPerPort + vi }

// routeHead computes and stores the output direction for the head flit
// at the front of VC f, moving f's bit to its port's routeTo mask and
// caching its message class in dataVCs for the VA request build.
func (r *Router) routeHead(f int) {
	flit := r.vcFrontFlit(f)
	pkt := flit.Pkt
	var d topology.Dir
	if pkt.Dst == r.id {
		d = topology.Local
	} else if r.algDOR {
		d = routing.DOR{}.NextPort(r.net.cfg.Topo, r.id, pkt.Dst)
	} else {
		d = r.net.cfg.Alg.NextPort(r.net.cfg.Topo, r.id, pkt.Dst)
	}
	oi := r.outIndex[d]
	if oi < 0 {
		panic(fmt.Sprintf("noc: router %d routed to missing port %v", r.id, d))
	}
	bit := uint64(1) << uint(f)
	if old := r.vcOutPort[f]; old != oi {
		if old >= 0 {
			r.routeTo[old] &^= bit
		}
		r.routeTo[oi] |= bit
		r.vcOutPort[f] = oi
	}
	r.vcOutDir[f] = d
	r.vcClass[f] = pkt.Class
	if pkt.Class == Data {
		r.dataVCs |= bit
	} else {
		r.dataVCs &^= bit
	}
	r.cnt.RCOps++
	if r.net.probe != nil {
		r.sh.emit(ProbeRoute, r.net.cycle, r.id, d, 0, flit)
	}
}

// layersN returns how many datapath layers a flit with the given
// active-layer count keeps switching: all of them for 0 or more than
// Layers. Network.layerFrac holds each count's fraction of Layers.
func (r *Router) layersN(active uint8) int64 {
	if l := r.net.cfg.Layers; active == 0 || int(active) > l {
		return int64(l)
	}
	return int64(active)
}

// arrive is the bookkeeping tail of a pushed flit f at the back of input
// VC fi (an NI injection or a mailbox arrival; a direct write counts in
// forward and starts in deliver). It counts the write and, when f is a
// head landing in an empty VC, starts its pipeline.
func (r *Router) arrive(fi int, f *Flit) {
	r.cnt.BufWrites++
	r.bufLayers += r.layersN(f.ActiveLayers)
	if f.Type.IsHead() && r.vcLen[fi] == 1 {
		r.landHead(int32(fi))
	}
}

// landHead starts the head that landed at the front of VC fi: it enters
// vcRouting. The VC must be idle: anything else is a credit or VC-state
// bug upstream.
func (r *Router) landHead(fi int32) {
	if r.vcState[fi] != vcIdle {
		panic(fmt.Sprintf("noc: router %d port %v vc %d head arrives in state %v",
			r.id, r.inPorts[r.portOf[fi]].dir, r.vcOf[fi], r.vcState[fi]))
	}
	r.setVCState(fi, vcRouting)
}

// stepRC routes the heads due this cycle, in ascending flat-VC order:
// the VCs that entered vcRouting in the previous cycle or, with
// look-ahead routing, in this one (setVCState filed them under this
// cycle's parity). It is the only routing site. RC never stalls, so the
// due mask is consumed whole and each head is visited once.
func (r *Router) stepRC(cycle int64) {
	for m := r.rcDue[cycle&1]; m != 0; m &= m - 1 {
		f := bits.TrailingZeros64(m)
		if front := r.vcFrontFlit(f); front == nil || !front.Type.IsHead() {
			panic(fmt.Sprintf("noc: router %d RC on non-head", r.id))
		}
		r.routeHead(f)
		r.setVCState(int32(f), vcWaitVC)
	}
}

// stepVA allocates free output VCs to waiting head flits. Each output
// VC owns a PV:1 arbiter (the VA2 stage of §3.2.5); the first-stage VA1
// output-VC selection collapses into the request build because a
// requester bids for every class-compatible free VC of its output port.
//
// Output port oi's request set is inVA & routeTo[oi], class-filtered
// under ByClass, read live: a grant takes its VC out of inVA, and no VC
// enters it during VA (only stepRC, which runs after VA, does), so each
// round sees exactly the waiters not yet granted. Ports without a
// waiter and reserved output VCs are skipped: a scan of every (oi, ov)
// would have found them requester-less, and an arbiter only moves on a
// grant, so the grant sequence is that scan's.
func (r *Router) stepVA(cycle int64) {
	var outMask uint32
	for m := r.inVA; m != 0; m &= m - 1 {
		f := bits.TrailingZeros64(m)
		outMask |= 1 << uint(r.vcOutPort[f])
	}
	r.cnt.VAReqs += int64(bits.OnesCount64(r.inVA))
	vcs := r.vcsPerPort
	byClass := r.net.cfg.Policy == ByClass
	// Ascending port order, then ascending output VC.
	for pm := outMask; pm != 0; pm &= pm - 1 {
		oi := bits.TrailingZeros32(pm)
		for ov := 0; ov < vcs; ov++ {
			if r.reserved[oi*vcs+ov] {
				continue
			}
			mask := r.inVA & r.routeTo[oi]
			if byClass {
				switch Class(ov) {
				case Control:
					mask &^= r.dataVCs
				case Data:
					mask &= r.dataVCs
				default:
					mask = 0
				}
			}
			if mask == 0 {
				continue
			}
			// The arbiter's full grant is paid only under contention.
			g := bits.TrailingZeros64(mask)
			if mask&(mask-1) == 0 {
				r.vaArb(oi, ov).grantSingle(g)
			} else if g = r.vaArb(oi, ov).grantMask(mask); g < 0 {
				continue
			}
			r.grantVC(cycle, g, oi, ov)
		}
	}
}

// grantVC commits a VA grant: reserve the output VC, activate the input
// VC and (under SpecSA) attempt the speculative same-cycle forward.
func (r *Router) grantVC(cycle int64, g, oi, ov int) {
	r.reserved[oi*r.vcsPerPort+ov] = true
	r.vcOutVC[g] = int8(ov)
	r.setVCState(int32(g), vcActive)
	r.cnt.VAGrants++
	if r.net.probe != nil {
		r.sh.emit(ProbeVCAlloc, cycle, r.id, r.outPorts[oi].dir, int8(ov), r.vcFrontFlit(g))
	}
	if r.net.cfg.SpecSA {
		r.trySpeculativeForward(cycle, g, oi)
	}
}

// saRankOf computes the QoS rank of the eligible front flit of VC f:
// 0 = in-flight body/tail (always highest, so packets cannot be starved
// mid-stream), 1 = control head, 2 = data head. Without QoSPriority all
// flits rank 0 and this is never called.
func (r *Router) saRankOf(cycle int64, f int) int8 {
	front := r.vcFrontFlit(f)
	if front.Pkt.Class == Control {
		return 0
	}
	// Data flits rank below control: in-flight body/tail at tier 1, new
	// heads at tier 2. Ageing promotes a waiting flit one tier per 16
	// cycles so continuous control storms cannot starve data
	// indefinitely.
	rank := int8(1)
	if front.Type.IsHead() {
		rank = 2
	}
	rank -= int8((cycle - r.vcFrontAt[f]) / 16)
	if rank < 0 {
		rank = 0
	}
	return rank
}

// maxPorts bounds a router's port count for stepSA's on-stack request
// masks: a power of two (the index is masked, not bounds-checked) no
// smaller than the number of directions.
const maxPorts = 16

var _ = [maxPorts - topology.NumDirs]struct{}{}

// stepSA arbitrates the crossbar: at most one flit per output port and
// one per input port each cycle. Winning flits traverse the switch (and
// the link, when ST+LT are combined) and are scheduled into the next
// router.
//
// One pass over the set bits of inSA builds each output port's request
// mask from the VCs that can send this cycle — a flit at the front since
// an earlier cycle, the serializing link free, a downstream credit in
// hand. (Only grantVC, which runs after SA, enters vcActive, so every
// VC in inSA was granted its output VC in an earlier cycle.)
func (r *Router) stepSA(cycle int64) {
	vcLen, frontAt := r.vcLen, r.vcFrontAt
	outPort, outVC, credits, linkMask := r.vcOutPort, r.vcOutVC, r.credits, r.linkMask
	serMask, serFree := r.serMask, r.serFree
	vcs := r.vcsPerPort
	var saReq [maxPorts]uint64
	var outMask uint32 // output ports with at least one request
	for m := r.inSA; m != 0; m &= m - 1 {
		f := bits.TrailingZeros64(m)
		if vcLen[f] == 0 || frontAt[f] >= cycle {
			continue
		}
		oi := int(outPort[f])
		if serMask>>uint(oi)&1 != 0 && cycle < serFree[oi] {
			r.cnt.SerStalls++
			continue // the serializing d2d link is still streaming a flit
		}
		if linkMask>>uint(oi)&1 != 0 && credits[oi*vcs+int(outVC[f])] <= 0 {
			r.cnt.CreditStalls++
			continue // no downstream buffer space
		}
		saReq[oi&(maxPorts-1)] |= 1 << uint(f)
		outMask |= 1 << uint(oi)
		r.cnt.SAReqs++
	}
	if outMask == 0 {
		return
	}
	r.claimCycle, r.claimIn, r.claimOut = cycle, 0, 0
	if outMask&(outMask-1) == 0 {
		// One requested output port: the rotation cannot matter, so skip
		// the modulo entirely.
		oi := bits.TrailingZeros32(outMask)
		r.saGrantPort(cycle, oi, saReq[oi&(maxPorts-1)])
		return
	}
	// Visit requested output ports in rotated priority order (start,
	// start+1, ..., wrap-around), extracting set mask bits instead of
	// testing every port.
	start := int(uint64(cycle) % uint64(len(r.outPorts)))
	for m := outMask >> uint(start); m != 0; m &= m - 1 {
		oi := start + bits.TrailingZeros32(m)
		r.saGrantPort(cycle, oi, saReq[oi&(maxPorts-1)])
	}
	for m := outMask & (1<<uint(start) - 1); m != 0; m &= m - 1 {
		oi := bits.TrailingZeros32(m)
		r.saGrantPort(cycle, oi, saReq[oi&(maxPorts-1)])
	}
}

// saGrantPort arbitrates output port oi among req, the cycle's requests
// for it, less the VCs of input ports claimed by an earlier grant of
// this cycle, and forwards the winner. req was built before any grant:
// a VC forwarded since (a tail release even drops it from inSA) is still
// in it, but its input port is claimed, so it can never be granted twice.
func (r *Router) saGrantPort(cycle int64, oi int, req uint64) {
	mask := req &^ r.claimIn
	if mask != 0 && r.net.cfg.QoSPriority {
		// Restrict candidates to the best QoS tier present.
		best, all := int8(127), mask
		for mask = 0; all != 0; all &= all - 1 {
			f := bits.TrailingZeros64(all)
			if rank := r.saRankOf(cycle, f); rank < best {
				best, mask = rank, 1<<uint(f)
			} else if rank == best {
				mask |= 1 << uint(f)
			}
		}
	}
	if mask == 0 {
		return
	}
	// A sole candidate skips the arbiter scan: grantSingle advances the
	// arbiter exactly like grantMask with one bit set.
	g := bits.TrailingZeros64(mask)
	if mask&(mask-1) == 0 {
		r.saArb(oi).grantSingle(g)
	} else if g = r.saArb(oi).grantMask(mask); g < 0 {
		return
	}
	r.claim(g, oi)
	r.forward(cycle, g, oi)
	r.cnt.SAGrants++
}

// claim takes input VC f's whole input port and output port oi out of
// this cycle's switch allocation.
func (r *Router) claim(f, oi int) {
	r.claimIn |= r.portVCs << (uint(r.portOf[f]) * uint(r.vcsPerPort))
	r.claimOut |= 1 << uint(oi)
}

// trySpeculativeForward attempts to move the freshly VC-allocated head
// flit of VC f through the crossbar in the same cycle as its VA grant
// (speculative switch allocation, Figure 8 (b)). Non-speculative grants
// made earlier this cycle keep their ports; speculation only uses
// leftover switch slots.
func (r *Router) trySpeculativeForward(cycle int64, f, oi int) {
	if r.claimCycle != cycle {
		// The switch allocator granted nothing here this cycle.
		r.claimCycle, r.claimIn, r.claimOut = cycle, 0, 0
	}
	if r.claimIn>>uint(f)&1 != 0 || r.claimOut>>uint(oi)&1 != 0 {
		return
	}
	if r.vcLen[f] == 0 || r.vcFrontAt[f] >= cycle {
		return
	}
	if r.serMask>>uint(oi)&1 != 0 && cycle < r.serFree[oi] {
		return
	}
	if r.linkMask>>uint(oi)&1 != 0 && r.credits[oi*r.vcsPerPort+int(r.vcOutVC[f])] <= 0 {
		return
	}
	r.cnt.SAReqs++
	r.cnt.SAGrants++
	r.claim(f, oi)
	r.forward(cycle, f, oi)
}

// forward sends the front flit of input VC fi through output port oi.
// The flit is read and mutated (hop count) in its ring slot and copied
// out exactly once — into the downstream ring, a cross-shard lane or the
// ejection ring — then dropped without a pop copy. It is the only code
// that writes a downstream ring slot at send time.
func (r *Router) forward(cycle int64, fi, oi int) {
	cfg := &r.net.cfg
	pi := int(r.portOf[fi])
	ip := &r.inPorts[pi]
	op := &r.outPorts[oi]
	f := &r.bufFlit[fi*r.bufDepth+int(r.vcHead[fi])]
	layers := r.layersN(f.ActiveLayers)
	frac := r.net.layerFrac[layers]
	outVC := int(r.vcOutVC[fi])

	r.cnt.XbarFlits++
	r.cnt.WXbarFlits += frac
	sh := r.sh
	if r.net.probe != nil { // on a network port, also the link traversal (ProbeLink)
		sh.emit(ProbeSAGrant, cycle, r.id, op.dir, int8(outVC), f)
	}

	// Credit back to the upstream router (the NI checks space directly)
	// on the credit lane toward its shard, its own shard's included. The
	// return is delayed by the reverse link's latency plus serialization
	// occupancy (credDelta is 1 for on-chip links, matching the
	// historical next-cycle return).
	if ip.upCredBase >= 0 {
		cs := &ip.credLane[sh.slot(cycle, cycle+ip.credDelta)]
		*cs = append(*cs, ip.upCredBase+int32(r.vcOf[fi]))
	}

	if f.Type.IsHead() && op.dir != topology.Local {
		f.Pkt.Hops++
	}
	isTail := f.Type.IsTail()

	if op.dir == topology.Local {
		// Ejection: ST (and wire to the NI) still takes the configured
		// cycles; the sink always accepts. Ejections never cross a
		// shard boundary (the local port has no downstream router), so
		// the flit goes into the shard's own ejection ring of this send
		// phase.
		at := cycle + int64(cfg.STLTCycles)
		ej := &sh.ej[sh.phase][sh.slot(cycle, at)]
		*ej = append(*ej, ejEntry{flit: *f, router: int32(r.id)})
	} else {
		ci := oi*r.vcsPerPort + outVC
		r.credits[ci]--
		if r.credits[ci] < 0 {
			panic(fmt.Sprintf("noc: router %d negative credits on %v vc %d", r.id, op.dir, outVC))
		}
		r.cnt.LinkFlits++
		r.cnt.WLinkFlits += frac
		r.cnt.LinkMMFlits += op.link.LengthMM
		r.cnt.WLinkMMFlits += op.link.LengthMM * frac
		if op.dir.IsExpress() {
			r.cnt.ExpFlits++
		}
		if op.dir.IsVertical() {
			r.cnt.VertFlits++
		}
		if op.link.D2D {
			r.cnt.D2DFlits++
		}
		if op.serCycles > 1 {
			// A narrow d2d link streams this flit for serCycles cycles;
			// the SA stages refuse the port until it drains.
			r.serFree[oi] = cycle + op.serCycles
		}
		// arriveDelta folds ST/LT, link latency and serialization into one
		// delta; it equals STLTCycles for on-chip links, preserving
		// bit-identity with the single-chip model.
		at := cycle + op.arriveDelta
		gi := op.downVCBase + event(outVC)
		if op.downShard == r.shard {
			// The flit goes straight into its downstream ring slot (one
			// copy, addressed by the global index in downVCBase), lands by
			// its arrival cycle alone (soa.go) and counts its write now;
			// only a head schedules a word, for deliver to start it.
			st := &r.net.soa
			depth := r.bufDepth
			n := int(st.vcLen[gi])
			if n >= depth {
				r.net.vcOverflow(gi)
			}
			slot := int(st.vcHead[gi]) + n
			if slot >= depth {
				slot -= depth
			}
			st.bufFlit[int(gi)*depth+slot] = *f
			st.bufArrived[int(gi)*depth+slot] = at
			if n == 0 {
				st.vcFrontAt[gi] = at
			}
			st.vcLen[gi]++
			op.down.cnt.BufWrites++
			op.down.bufLayers += layers
			if f.Type.IsHead() {
				s := &sh.ev[sh.slot(cycle, at)]
				*s = append(*s, gi)
			}
		} else {
			// Cross-shard forward: the downstream arrays belong to a
			// shard that may be mid-cycle, so the flit body rides the
			// lane toward it and is pushed into the destination ring at
			// delivery time (deliver). The credit check above already
			// guaranteed the space.
			ms := &r.net.mail[r.shard][op.downShard].ev[sh.slot(cycle, at)]
			*ms = append(*ms, xEvent{gi: gi, flit: *f})
		}
	}
	r.vcDrop(fi)

	if isTail {
		// The next head starts here if it has landed; one still on the
		// wire finds the VC idle and starts at its own word (deliver).
		r.reserved[oi*r.vcsPerPort+outVC] = false
		if r.vcLen[fi] > 0 && r.vcFrontAt[fi] <= cycle {
			if !r.vcFrontFlit(fi).Type.IsHead() {
				panic(fmt.Sprintf("noc: router %d flit after tail is not a head", r.id))
			}
			r.setVCState(int32(fi), vcRouting)
		} else {
			r.setVCState(int32(fi), vcIdle)
		}
	}
}

// onWire returns the buffer writes forward already counted for r's
// flits still on the wire (the ring suffixes past vcLanded) and their
// active layers.
func (r *Router) onWire() (writes, layers int64) {
	for f := range r.vcLen {
		for k := r.vcLanded(f, r.net.cycle); k < int(r.vcLen[f]); k++ {
			fl := &r.bufFlit[f*r.bufDepth+(int(r.vcHead[f])+k)%r.bufDepth]
			writes++
			layers += r.layersN(fl.ActiveLayers)
		}
	}
	return writes, layers
}

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
	// upShard is the shard owning the upstream router (this router's
	// own shard for the local port); credit returns that cross it go
	// through the boundary mailbox instead of the shard's own ring.
	upShard int32
	// credDelta is the credit-return delay toward the upstream router:
	// the latency plus serialization of the reverse channel this
	// router's credits travel (1 for on-chip links — the historical
	// fixed delay). Precomputed at construction from the topology.
	credDelta int64
}

// outputPort is the construction/observability view of one output port.
// reserved and credits are sub-slices of the network's flat arrays —
// they alias, not copy, the state the stage loops index directly, so
// the view can never diverge from the arrays.
type outputPort struct {
	dir     topology.Dir
	link    topology.Link // zero unless dir != Local
	hasLink bool
	// reserved marks output VCs currently owned by an in-flight packet;
	// credits counts free buffer slots in the downstream input VC.
	reserved []bool
	credits  []int32
	// flitCount tallies flits sent over this port's link, for the
	// per-link utilization report.
	flitCount int64
	// downVCBase is the global flat VC index of the downstream input
	// channel's vc 0 (the port this link lands on), precomputed so the
	// forward path reserves the destination slot and schedules the
	// arrival event from a single add. -1 for the local port.
	downVCBase int32
	// downShard is the shard owning the downstream router (this
	// router's own shard for the local port). Forwards staying inside
	// the shard direct-write the flit into the downstream ring slot;
	// forwards that cross it carry the flit through the boundary
	// mailbox (shard.go).
	downShard int32
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
	// class is the link's physical class, for the d2d traffic counters.
	class topology.LinkClass
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
	// into its rings and the probe emission sites go through its sink.
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
	// algXY is set when Config.Alg is plain dimension-ordered routing,
	// letting routeHead call it directly instead of through the
	// interface (the per-head dispatch is measurable at high load).
	algXY    bool
	Counters Counters

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
	vcReadyAt []int64
	vcFrontAt []int64
	vcOutDir  []topology.Dir
	vcOutPort []int8
	vcOutVC   []int8
	vcClass   []Class
	vcInFly   []int8

	// VC ring storage (windows, BufDepth slots per VC).
	bufFlit    []Flit
	bufArrived []int64

	// Output flow control (windows, indexed oi*VCs+ov) and arbiter
	// state (window, indexed oi*(1+VCs) for SA, +1+ov for VA).
	reserved []bool
	credits  []int32
	arbs     []arbState

	// Per-cycle switch occupancy (windows), shared between the
	// non-speculative switch allocator and speculative forwards issued
	// during VA. Each entry holds the cycle the port was last claimed,
	// so a port is busy iff its entry equals the current cycle and no
	// per-cycle clearing pass is needed.
	inBusy  []int64
	outBusy []int64
	// serFree[oi] is the first cycle output port oi's serializing link
	// is free again (window; meaningful only for serMask ports, where
	// forward stamps cycle + serCycles).
	serFree []int64
	// reqScratch and saRank are reusable per-cycle scratch vectors
	// (windows) over flat input-VC indices, avoiding allocation in the
	// hot switch-allocation loop. reqScratch is the []bool request vector
	// of grantMask's matrix delegation, which leaves it all-false.
	reqScratch []bool
	saRank     []int8
	// The eligibility pass threads each cycle's switch-eligible VCs into
	// per-output-port chains: saHead[oi]/saLast[oi] bound the chain and
	// eligNext[f] links it (windows, reset lazily per cycle via
	// saCount), so the grant loop walks exactly one port's candidates
	// instead of filtering a shared list per port. saCount/saLast also
	// feed the direct grantSingle path when a port has exactly one
	// candidate — the common case off saturation.
	eligNext []int32
	saHead   []int32
	saCount  []int8
	saLast   []int32

	// portOf/vcOf invert the flat VC index without divisions (windows).
	portOf []int8
	vcOf   []int8
	// listRC, listVA and listSA hold the flat indices of VCs currently
	// in vcRouting, vcWaitVC and vcActive; they are zero-length
	// fixed-capacity windows, so appends write in place. listPos[f] is
	// f's position in its state's list (-1 when idle). Maintained by
	// setVCState; see activity.go for the determinism argument.
	listRC, listVA, listSA []int32
	listPos                []int32
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
			op.class = l.Class
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
// arrays) and initializes its slice of the state: credits, arbiters,
// list positions and the flat-index inverse maps.
func (r *Router) bind(st *soaState, vcBase, portBase int) {
	cfg := &r.net.cfg
	nP := len(r.inPorts)
	nVC := nP * cfg.VCs
	r.vcBase = int32(vcBase)

	r.vcState = st.vcState[vcBase : vcBase+nVC]
	r.vcHead = st.vcHead[vcBase : vcBase+nVC]
	r.vcLen = st.vcLen[vcBase : vcBase+nVC]
	r.vcReadyAt = st.vcReadyAt[vcBase : vcBase+nVC]
	r.vcFrontAt = st.vcFrontAt[vcBase : vcBase+nVC]
	r.vcOutDir = st.vcOutDir[vcBase : vcBase+nVC]
	r.vcOutPort = st.vcOutPort[vcBase : vcBase+nVC]
	r.vcOutVC = st.vcOutVC[vcBase : vcBase+nVC]
	r.vcClass = st.vcClass[vcBase : vcBase+nVC]
	r.vcInFly = st.vcInFly[vcBase : vcBase+nVC]
	r.bufFlit = st.bufFlit[vcBase*cfg.BufDepth : (vcBase+nVC)*cfg.BufDepth]
	r.bufArrived = st.bufArrived[vcBase*cfg.BufDepth : (vcBase+nVC)*cfg.BufDepth]

	pv := portBase * cfg.VCs
	r.credBase = int32(pv)
	r.reserved = st.reserved[pv : pv+nVC]
	r.credits = st.credits[pv : pv+nVC]
	r.arbs = st.arbs[portBase*(1+cfg.VCs) : (portBase+nP)*(1+cfg.VCs)]
	r.inBusy = st.inBusy[portBase : portBase+nP]
	r.outBusy = st.outBusy[portBase : portBase+nP]
	r.serFree = st.serFree[portBase : portBase+nP]

	r.reqScratch = st.reqScratch[vcBase : vcBase+nVC]
	_, r.algXY = cfg.Alg.(routing.XY)
	r.saRank = st.saRank[vcBase : vcBase+nVC]
	r.eligNext = st.eligStore[vcBase : vcBase+nVC]
	r.saHead = st.saHead[portBase : portBase+nP]
	r.saCount = st.saCount[portBase : portBase+nP]
	r.saLast = st.saLast[portBase : portBase+nP]
	r.portOf = st.portOf[vcBase : vcBase+nVC]
	r.vcOf = st.vcOf[vcBase : vcBase+nVC]
	r.listRC = st.listRC[vcBase : vcBase : vcBase+nVC]
	r.listVA = st.listVA[vcBase : vcBase : vcBase+nVC]
	r.listSA = st.listSA[vcBase : vcBase : vcBase+nVC]
	r.listPos = st.listPos[vcBase : vcBase+nVC]

	for f := 0; f < nVC; f++ {
		r.listPos[f] = -1
		r.vcOutPort[f] = -1
		r.portOf[f] = int8(f / cfg.VCs)
		r.vcOf[f] = int8(f % cfg.VCs)
	}
	for oi := range r.outPorts {
		op := &r.outPorts[oi]
		base := oi * cfg.VCs
		op.reserved = r.reserved[base : base+cfg.VCs]
		op.credits = r.credits[base : base+cfg.VCs]
		if op.hasLink {
			r.linkMask |= 1 << uint(oi)
			for v := 0; v < cfg.VCs; v++ {
				r.credits[base+v] = int32(cfg.BufDepth)
			}
			if op.serCycles > 1 {
				r.serMask |= 1 << uint(oi)
			}
		}
		r.saArb(oi).init(cfg.Arb, nVC)
		for ov := 0; ov < cfg.VCs; ov++ {
			r.vaArb(oi, ov).init(cfg.Arb, nVC)
		}
	}
}

// flatVC maps (input port, vc) to the flattened request index.
func (r *Router) flatVC(pi, vi int) int { return pi*r.vcsPerPort + vi }

// startHead prepares the VC at flat index f whose front just became a
// head flit: with look-ahead routing the output port is already known
// when the flit arrives (it was computed at the upstream router), so
// the RC stage disappears from the critical path.
func (r *Router) startHead(f int32, cycle int64) {
	if r.net.cfg.LookaheadRC {
		r.routeHead(int(f))
		r.setVCState(f, vcWaitVC)
	} else {
		r.setVCState(f, vcRouting)
	}
	r.vcReadyAt[f] = cycle + 1
}

// routeHead computes and stores the output direction for the head flit
// at the front of VC f, caching its message class for the VA scans.
func (r *Router) routeHead(f int) {
	flit := r.vcFrontFlit(f)
	pkt := flit.Pkt
	var d topology.Dir
	if pkt.Dst == r.id {
		d = topology.Local
	} else if r.algXY {
		d = routing.XY{}.NextPort(r.net.cfg.Topo, r.id, pkt.Dst)
	} else {
		d = r.net.cfg.Alg.NextPort(r.net.cfg.Topo, r.id, pkt.Dst)
	}
	oi := r.outIndex[d]
	if oi < 0 {
		panic(fmt.Sprintf("noc: router %d routed to missing port %v", r.id, d))
	}
	r.vcOutDir[f] = d
	r.vcOutPort[f] = oi
	r.vcClass[f] = pkt.Class
	r.Counters.RCOps++
	if r.sh.probe != nil {
		r.sh.probe.ProbeEvent(ProbeEvent{
			Kind: ProbeRoute, Cycle: r.net.cycle, Router: r.id, Dir: d, Flit: *flit,
		})
	}
}

// layerFracN returns the fraction of datapath layers a flit with the
// given active-layer count keeps switching (a table lookup; the ratios
// are precomputed in NewNetwork).
func (r *Router) layerFracN(active uint8) float64 {
	lut := r.net.layerFrac
	if int(active) >= len(lut) {
		return 1
	}
	return lut[active]
}

// arrive is the bookkeeping tail of every buffer write, run once flit f
// is visible at the back of input VC fi: a ring arrival exposed by
// vcArrive, a mailbox arrival or an NI injection pushed by vcPush. It
// counts the write and, when f is a head landing in an empty VC, starts
// its pipeline.
func (r *Router) arrive(fi int, f *Flit, cycle int64) {
	r.Counters.BufWrites++
	r.Counters.WBufWrites += r.layerFracN(f.ActiveLayers)
	if f.Type.IsHead() && r.vcLen[fi] == 1 {
		if r.vcState[fi] != vcIdle {
			panic(fmt.Sprintf("noc: router %d port %v vc %d head arrives in state %v",
				r.id, r.inPorts[r.portOf[fi]].dir, r.vcOf[fi], r.vcState[fi]))
		}
		r.startHead(int32(fi), cycle)
	}
}

// stepRC performs route computation for head flits that reached the
// front of their VC. Only VCs on the routing pending list are visited;
// routed VCs swap-remove themselves mid-iteration (the element swapped
// into the vacated slot is examined next, so no entry is skipped).
func (r *Router) stepRC(cycle int64) {
	for i := 0; i < len(r.listRC); {
		f := r.listRC[i]
		if cycle < r.vcReadyAt[f] {
			i++
			continue
		}
		front := r.vcFrontFlit(int(f))
		if front == nil || !front.Type.IsHead() {
			panic(fmt.Sprintf("noc: router %d RC on non-head", r.id))
		}
		r.routeHead(int(f))
		r.setVCState(f, vcWaitVC) // swap-removes listRC[i]
		r.vcReadyAt[f] = cycle + 1
	}
}

// stepVA allocates free output VCs to waiting head flits. Each output
// VC owns a PV:1 arbiter (the VA2 stage of §3.2.5); the first-stage VA1
// output-VC selection collapses into the candidate filter because a
// requester bids for every class-compatible free VC of its output port.
//
// Only VCs on the wait pending list build request masks, and output
// ports no ready waiter is routed to are skipped outright; both prune
// exactly the (oi, ov) pairs a scan of every port and VC would have
// found requester-less, and an arbiter only moves on a grant, so the
// grant sequence is that scan's.
func (r *Router) stepVA(cycle int64) {
	readyAt := r.vcReadyAt
	outPort := r.vcOutPort
	// Thread the ready waiters into per-output-port chains, reusing the
	// SA chain scratch (stepSA ran earlier this cycle and has consumed
	// its chains). One pass replaces the per-(oi, ov) rescans of the
	// wait list; chain order is list order, but nothing below depends on
	// it (request masks are order-independent), so the arbiters receive
	// the identical grant sequence.
	saLast, saHead, next := r.saLast, r.saHead, r.eligNext
	var outMask uint32
	nReady := 0
	for _, f := range r.listVA {
		if cycle < readyAt[f] {
			continue
		}
		nReady++
		oi := int(outPort[f])
		bit := uint32(1) << uint(oi)
		if outMask&bit == 0 {
			saHead[oi] = f
			outMask |= bit
		} else {
			next[saLast[oi]] = f
		}
		saLast[oi] = f
	}
	r.Counters.VAReqs += int64(nReady)
	if nReady == 0 {
		return
	}
	vcs := r.vcsPerPort
	state, class := r.vcState, r.vcClass
	byClass := r.net.cfg.Policy == ByClass
	// Ascending port order, then ascending output VC. The walk
	// re-checks the full candidate predicate — state, readiness and
	// output port — not just the state: a chain entry granted for an
	// earlier (oi, ov) normally leaves the wait state (grantVC), but
	// under SpecSA+LookaheadRC its speculative forward can release the
	// channel (single-flit packet) and route the next buffered head
	// straight back into vcWaitVC, with readyAt = cycle+1 and possibly a
	// different output port. The stale chain still lists it, so only the
	// readyAt and outPort guards keep it out of later (oi, ov) rounds
	// (the oracle, which rebuilds each round's requests from the live VC
	// state, is what holds this walk to that: oracle_test.go).
	for m := outMask; m != 0; m &= m - 1 {
		oi := bits.TrailingZeros32(m)
		head, tail := saHead[oi], saLast[oi]
		for ov := 0; ov < vcs; ov++ {
			if r.reserved[oi*vcs+ov] {
				continue
			}
			// Collect the request bits; the arbiter's full grant is paid
			// only under contention.
			var mask uint64
			for f := head; ; f = next[f] {
				if state[f] == vcWaitVC && cycle >= readyAt[f] &&
					int(outPort[f]) == oi && (!byClass || ov == int(class[f])) {
					mask |= 1 << uint(f)
				}
				if f == tail {
					break
				}
			}
			if mask == 0 {
				continue
			}
			g := bits.TrailingZeros64(mask)
			if mask&(mask-1) == 0 {
				r.vaArb(oi, ov).grantSingle(g)
			} else if g = r.vaArb(oi, ov).grantMask(mask, r.reqScratch); g < 0 {
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
	r.vcReadyAt[g] = cycle + 1
	r.Counters.VAGrants++
	if r.sh.probe != nil {
		r.sh.probe.ProbeEvent(ProbeEvent{
			Kind: ProbeVCAlloc, Cycle: cycle, Router: r.id,
			Dir: r.outPorts[oi].dir, VC: int8(ov), Flit: *r.vcFrontFlit(g),
		})
	}
	if r.net.cfg.SpecSA {
		r.trySpeculativeForward(cycle, g, oi)
	}
}

// saRankOf computes the QoS rank of the eligible front flit of VC f:
// 0 = in-flight body/tail (always highest, so packets cannot be starved
// mid-stream), 1 = control head, 2 = data head. Without QoSPriority all
// flits rank 0 (and the buffered flit is never touched).
func (r *Router) saRankOf(cycle int64, f int) int8 {
	if !r.net.cfg.QoSPriority {
		return 0
	}
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
	rank -= int8((cycle - r.vcFrontArrived(f)) / 16)
	if rank < 0 {
		rank = 0
	}
	return rank
}

// stepSA arbitrates the crossbar: at most one flit per output port and
// one per input port each cycle. Winning flits traverse the switch (and
// the link, when ST+LT are combined) and are scheduled into the next
// router.
//
// Eligibility (the per-port chains and saRank) is cached only for the
// VCs on the active pending list; entries not on the list are never
// read, so their stale values from earlier cycles are harmless.
func (r *Router) stepSA(cycle int64) {
	nOut := len(r.outPorts)
	saRank := r.saRank
	readyAt, vcLen, frontAt := r.vcReadyAt, r.vcLen, r.vcFrontAt
	saCount, saLast, saHead, eligNext := r.saCount, r.saLast, r.saHead, r.eligNext
	// Hoisted like the scratch above: the chain stores below keep the
	// compiler from proving these headers loop-invariant on its own.
	outPort, outVC, credits, linkMask := r.vcOutPort, r.vcOutVC, r.credits, r.linkMask
	serMask, serFree := r.serMask, r.serFree
	var outMask uint32 // output ports with at least one eligible VC
	vcs := r.vcsPerPort
	qos := r.net.cfg.QoSPriority
	for _, f := range r.listSA {
		if cycle < readyAt[f] {
			continue
		}
		if vcLen[f] == 0 || frontAt[f] >= cycle {
			continue
		}
		oi := int(outPort[f])
		if serMask>>uint(oi)&1 != 0 && cycle < serFree[oi] {
			r.Counters.SerStalls++
			continue // the serializing d2d link is still streaming a flit
		}
		if linkMask>>uint(oi)&1 != 0 && credits[oi*vcs+int(outVC[f])] <= 0 {
			r.Counters.CreditStalls++
			continue // no downstream buffer space
		}
		// Thread f onto output port oi's candidate chain (list order,
		// so the chain is the pending-list scan restricted to oi).
		bit := uint32(1) << uint(oi)
		if outMask&bit == 0 {
			saCount[oi] = 0
			saHead[oi] = f
			outMask |= bit
		} else {
			eligNext[saLast[oi]] = f
		}
		saCount[oi]++
		saLast[oi] = f
		if qos {
			saRank[f] = r.saRankOf(cycle, int(f))
		} else {
			saRank[f] = 0
		}
		r.Counters.SAReqs++
	}
	if outMask == 0 {
		return
	}
	inBusy, outBusy := r.inBusy, r.outBusy
	if outMask&(outMask-1) == 0 {
		// One eligible output port: the rotation cannot matter, so skip
		// the modulo entirely.
		r.saGrantPort(cycle, bits.TrailingZeros32(outMask), inBusy, outBusy)
		return
	}
	// Visit eligible output ports in rotated priority order (start,
	// start+1, ..., wrap-around), extracting set mask bits instead of
	// testing every port.
	start := int(uint64(cycle) % uint64(nOut))
	for m := outMask >> uint(start); m != 0; m &= m - 1 {
		r.saGrantPort(cycle, start+bits.TrailingZeros32(m), inBusy, outBusy)
	}
	for m := outMask & (1<<uint(start) - 1); m != 0; m &= m - 1 {
		r.saGrantPort(cycle, bits.TrailingZeros32(m), inBusy, outBusy)
	}
}

// saGrantPort arbitrates one output port among the cycle's eligible VCs
// and forwards the winner. The port's candidate chain (snapshotted by
// stepSA) is walked rather than the live pending list: a VC forwarded
// earlier this cycle (tail release drops it from listSA) stays in the
// chain, but its input port is marked busy, so it can never be granted
// twice.
func (r *Router) saGrantPort(cycle int64, oi int, inBusy, outBusy []int64) {
	if outBusy[oi] == cycle {
		return
	}
	var g int
	if r.saCount[oi] == 1 {
		// Sole candidate: skip the request-mask build. grantSingle
		// advances the arbiter exactly like grantMask with one bit set.
		f := r.saLast[oi]
		if inBusy[r.portOf[f]] == cycle {
			return
		}
		r.saArb(oi).grantSingle(int(f))
		g = int(f)
	} else {
		portOf, next := r.portOf, r.eligNext
		head, tail := r.saHead[oi], r.saLast[oi]
		var mask uint64
		if r.net.cfg.QoSPriority {
			// Restrict candidates to the best QoS tier present.
			saRank := r.saRank
			best := int8(127)
			for f := head; ; f = next[f] {
				if inBusy[portOf[f]] != cycle && saRank[f] < best {
					best = saRank[f]
				}
				if f == tail {
					break
				}
			}
			if best == 127 {
				return
			}
			for f := head; ; f = next[f] {
				if inBusy[portOf[f]] != cycle && saRank[f] == best {
					mask |= 1 << uint(f)
				}
				if f == tail {
					break
				}
			}
		} else {
			// Without QoS every rank is 0 (stepSA wrote them), so the
			// best-tier prescan collapses into the request build.
			for f := head; ; f = next[f] {
				if inBusy[portOf[f]] != cycle {
					mask |= 1 << uint(f)
				}
				if f == tail {
					break
				}
			}
		}
		if mask == 0 {
			return
		}
		if g = r.saArb(oi).grantMask(mask, r.reqScratch); g < 0 {
			return
		}
	}
	pi := int(r.portOf[g])
	r.forward(cycle, g, oi)
	inBusy[pi] = cycle
	outBusy[oi] = cycle
	r.Counters.SAGrants++
}

// trySpeculativeForward attempts to move the freshly VC-allocated head
// flit of VC f through the crossbar in the same cycle as its VA grant
// (speculative switch allocation, Figure 8 (b)). Non-speculative grants
// made earlier this cycle keep their ports; speculation only uses
// leftover switch slots.
func (r *Router) trySpeculativeForward(cycle int64, f, oi int) {
	inBusy, outBusy := r.inBusy, r.outBusy
	pi := int(r.portOf[f])
	if inBusy[pi] == cycle || outBusy[oi] == cycle {
		return
	}
	if r.vcLen[f] == 0 || r.vcFrontArrived(f) >= cycle {
		return
	}
	if r.serMask>>uint(oi)&1 != 0 && cycle < r.serFree[oi] {
		return
	}
	if r.linkMask>>uint(oi)&1 != 0 && r.credits[oi*r.vcsPerPort+int(r.vcOutVC[f])] <= 0 {
		return
	}
	r.Counters.SAReqs++
	r.Counters.SAGrants++
	r.forward(cycle, f, oi)
	inBusy[pi] = cycle
	outBusy[oi] = cycle
}

// forward sends the front flit of input VC fi through output port oi.
// The flit is read and mutated (hop count) in its ring slot and copied
// out exactly once — into the downstream ring, a boundary mailbox or the
// ejection event — then dropped without a pop copy. It is the only code
// that reserves a downstream ring slot.
func (r *Router) forward(cycle int64, fi, oi int) {
	cfg := &r.net.cfg
	pi := int(r.portOf[fi])
	ip := &r.inPorts[pi]
	op := &r.outPorts[oi]
	f := &r.bufFlit[fi*r.bufDepth+int(r.vcHead[fi])]
	frac := r.layerFracN(f.ActiveLayers)
	outVC := int(r.vcOutVC[fi])

	r.Counters.BufReads++
	r.Counters.WBufReads += frac
	r.Counters.XbarFlits++
	r.Counters.WXbarFlits += frac
	sh := r.sh
	if sh.probe != nil {
		sh.probe.ProbeEvent(ProbeEvent{
			Kind: ProbeSAGrant, Cycle: cycle, Router: r.id, Dir: op.dir, VC: int8(outVC), Flit: *f,
		})
	}

	// Credit back to the upstream router (the NI checks space directly);
	// a credit crossing the shard boundary rides the mailbox's credit
	// lane instead of the shard's own ring. The return is delayed by the
	// reverse link's latency plus serialization occupancy (credDelta is 1
	// for on-chip links, matching the historical next-cycle return).
	if ip.upCredBase >= 0 {
		ci := ip.upCredBase + int32(r.vcOf[fi])
		if ip.upShard == r.shard {
			cs := sh.credSlot(cycle, cycle+ip.credDelta)
			*cs = append(*cs, ci)
		} else {
			cs := r.net.mailCredSlot(sh, ip.upShard, cycle+ip.credDelta)
			*cs = append(*cs, ci)
		}
	}

	if f.Type.IsHead() && op.dir != topology.Local {
		f.Pkt.Hops++
	}
	isTail := f.Type.IsTail()

	if op.dir == topology.Local {
		// Ejection: ST (and wire to the NI) still takes the configured
		// cycles; the sink always accepts. Ejections never cross a
		// shard boundary (the local port has no downstream router), so
		// the payload goes into the shard's own ejection ring.
		at := cycle + int64(cfg.STLTCycles)
		s := sh.evSlot(cycle, at)
		ej := &sh.ejRing[at&sh.ringMask]
		*s = append(*s, ^event(len(*ej)))
		*ej = append(*ej, ejEntry{flit: *f, router: int32(r.id)})
		if sh.stamp {
			idx := &sh.evIdx[sh.phase][at&sh.ringMask]
			*idx = append(*idx, sh.hot.seq)
			sh.hot.seq++
		}
	} else {
		ci := oi*r.vcsPerPort + outVC
		r.credits[ci]--
		if r.credits[ci] < 0 {
			panic(fmt.Sprintf("noc: router %d negative credits on %v vc %d", r.id, op.dir, outVC))
		}
		r.Counters.LinkFlits++
		r.Counters.WLinkFlits += frac
		op.flitCount++
		if sh.probe != nil {
			sh.probe.ProbeEvent(ProbeEvent{
				Kind: ProbeLink, Cycle: cycle, Router: r.id, Dir: op.dir, VC: int8(outVC), Flit: *f,
			})
		}
		r.Counters.LinkMMFlits += op.link.LengthMM
		r.Counters.WLinkMMFlits += op.link.LengthMM * frac
		if op.dir.IsExpress() {
			r.Counters.ExpFlits++
		}
		if op.dir.IsVertical() {
			r.Counters.VertFlits++
		}
		if op.class.IsD2D() {
			r.Counters.D2DFlits++
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
			// The flit body goes straight into its future slot of the
			// downstream VC ring (single copy); the event word is the
			// destination's global flat VC index — the arrival notice
			// that exposes the flit at the delivery cycle. Deliveries are
			// FIFO per VC (one flit per link per cycle) and pops leave
			// head+len invariant, so the slot computed here — after the
			// buffered flits and the earlier in-flight ones — is exactly
			// where vcArrive will expose it. The flat arrays are
			// addressed by the global index precomputed in downVCBase,
			// so the downstream router header is never touched.
			st := &r.net.soa
			depth := r.bufDepth
			occ := int(st.vcLen[gi]) + int(st.vcInFly[gi])
			if occ >= depth {
				r.net.reserveOverflow(gi)
			}
			slot := int(st.vcHead[gi]) + occ
			if slot >= depth {
				slot -= depth
			}
			st.bufFlit[int(gi)*depth+slot] = *f
			st.bufArrived[int(gi)*depth+slot] = at
			st.vcInFly[gi]++
			s := sh.evSlot(cycle, at)
			*s = append(*s, gi)
			if sh.stamp {
				idx := &sh.evIdx[sh.phase][at&sh.ringMask]
				*idx = append(*idx, sh.hot.seq)
				sh.hot.seq++
			}
		} else {
			// Cross-shard forward: the downstream arrays belong to a
			// shard that may be mid-cycle, so the flit body rides the
			// boundary mailbox and is pushed into the destination ring
			// at delivery time (shardCycle). The credit check above
			// already guaranteed the space.
			var seq int32
			if sh.stamp {
				seq = sh.hot.seq
				sh.hot.seq++
			}
			ms := r.net.mailEvSlot(sh, op.downShard, at)
			*ms = append(*ms, xEvent{gi: gi, idx: seq, flit: *f})
		}
	}
	r.vcDrop(fi)

	if isTail {
		r.reserved[oi*r.vcsPerPort+outVC] = false
		if next := r.vcFrontFlit(fi); next != nil {
			if !next.Type.IsHead() {
				panic(fmt.Sprintf("noc: router %d flit after tail is not a head", r.id))
			}
			r.startHead(int32(fi), cycle)
		} else {
			r.setVCState(int32(fi), vcIdle)
		}
	}
}

// occupancy returns the total buffered flits (for tests and saturation
// diagnostics).
func (r *Router) occupancy() int {
	n := 0
	for _, l := range r.vcLen {
		n += int(l)
	}
	return n
}

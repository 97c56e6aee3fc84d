package noc

import (
	"fmt"

	"mira/internal/topology"
)

// The oracle is the router the textbook describes, written to be
// checked by reading rather than to be fast: one struct per router,
// port and virtual channel, a slice per flit buffer, a plain list per
// kind of thing travelling on a wire, and five loops per cycle that
// visit every port and VC of every router whether or not anything is
// there. It exists only in this test file. With production it shares
// the inputs — topology, routing algorithm, Config, Spec — and the
// Counters record its results are compared in; it shares none of the
// machinery the cycle kernel is built from: no flat arrays or windows,
// no activity lists or sets, no request masks, no shards, mailboxes or
// event rings, and its own arbiter (oRoundRobin).
//
// What the two must agree on is the model (DESIGN.md §5):
//
//   - A cycle delivers what the wires carry, lets every NI inject at
//     most one flit, then runs switch allocation, VC allocation and
//     route computation in that order over all routers, so a flit
//     advances one stage per cycle.
//   - A head flit that reaches the front of an idle VC at cycle c may
//     be routed from c+1, allocated an output VC the cycle after and
//     bid for the switch the cycle after that; look-ahead routing
//     removes the first step, speculative switch allocation lets the
//     third share a cycle with the second.
//   - Allocators are separable and output-first: each output VC (VA)
//     and each output port (SA) owns one arbiter over the router's
//     input VCs numbered port-major; SA visits output ports starting
//     at cycle mod ports, grants at most one flit per input port and
//     per output port, and under QoS restricts each port's requesters
//     to the best rank present.
//   - A granted flit lands downstream STLTCycles-1 + latency +
//     serialization-1 cycles later (STLTCycles later at the NI); its
//     credit returns over the reverse link in latency+serialization-1.
type oracle struct {
	cfg     Config
	cycle   int64
	routers []*oRouter
	nis     []oNI
	nextID  int64

	// The wires: everything sent and not yet delivered, in send order.
	flits   []oFlitOnWire
	credits []oCreditOnWire
	ejects  []oFlitOnWire // on their way to the NI of .router (.to is unused)

	generatedFlits int64
	ejectedFlits   int64
	ejected        []oEjection // tail ejections, in delivery order

	// log, if set, is told every pipeline event, in the vocabulary of
	// production's probe (probe.go).
	log func(oEvent)
}

// oEvent is one pipeline event of one flit.
type oEvent struct {
	kind   ProbeKind
	cycle  int64
	router topology.NodeID
	dir    topology.Dir
	vc     int
	pkt    int64
	seq    int
}

func (o *oracle) note(kind ProbeKind, r *oRouter, dir topology.Dir, vc int, f oFlit) {
	if o.log != nil {
		o.log(oEvent{kind: kind, cycle: o.cycle, router: r.id, dir: dir, vc: vc, pkt: f.pkt.id, seq: f.seq})
	}
}

// oEjection is one packet leaving the network: what the comparison
// against production is made on.
type oEjection struct {
	id       int64
	cycle    int64
	router   topology.NodeID
	created  int64
	injected int64
	hops     int
}

type oPacket struct {
	id       int64
	src, dst topology.NodeID
	size     int
	class    Class
	created  int64
	injected int64
	hops     int
	layers   []uint8
}

type oFlit struct {
	pkt        *oPacket
	seq        int
	head, tail bool
	arrived    int64 // cycle it was written into the buffer it sits in
}

// frac is the share of datapath layers the flit keeps switching.
func (f oFlit) frac(layers int) float64 {
	if f.pkt.layers == nil || f.pkt.layers[f.seq] == 0 || int(f.pkt.layers[f.seq]) > layers {
		return 1
	}
	return float64(f.pkt.layers[f.seq]) / float64(layers)
}

type oFlitOnWire struct {
	at     int64
	flit   oFlit
	router *oRouter // receiving router (the ejecting one for ejects)
	to     *oVC
}

type oCreditOnWire struct {
	at int64
	to *oOutVC
}

type oStage uint8

const (
	oIdle oStage = iota
	oRouting
	oWaitVC
	oActive
)

// oVC is one input virtual channel: a FIFO and the state of the packet
// at its front.
type oVC struct {
	buf     []oFlit
	stage   oStage
	readyAt int64 // first cycle the pending stage may act
	out     int   // output port, from RC until the tail leaves
	outVC   int   // output VC, from VA until the tail leaves
}

// oOutVC is one output virtual channel: who holds it, how much room the
// downstream buffer has, and the arbiter that hands it out.
type oOutVC struct {
	reserved bool
	credits  int
	arb      oRoundRobin
}

// oPort is one physical port, input and output side.
type oPort struct {
	dir      topology.Dir
	link     topology.Link // leaving through dir; zero for Local
	in       []oVC
	out      []oOutVC
	sa       oRoundRobin
	inUsed   bool  // an input VC of this port won the switch this cycle
	outUsed  bool  // this output was granted this cycle
	linkFree int64 // first cycle a serializing link takes the next flit
}

type oRouter struct {
	id     topology.NodeID
	ports  []oPort
	portOf [topology.NumDirs]int
	cnt    Counters
}

type oNI struct {
	queue []*oPacket
	cur   *oPacket
	seq   int
	vc    int
}

// oRoundRobin picks one of the requesters, or -1, giving the requester
// after the last winner first refusal.
type oRoundRobin struct{ next int }

func (a *oRoundRobin) pick(req []bool) int {
	for k := range req {
		if i := (a.next + k) % len(req); req[i] {
			a.next = (i + 1) % len(req)
			return i
		}
	}
	return -1
}

func newOracle(cfg Config) *oracle {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	o := &oracle{cfg: cfg, nis: make([]oNI, cfg.Topo.NumNodes())}
	for id := 0; id < cfg.Topo.NumNodes(); id++ {
		r := &oRouter{id: topology.NodeID(id)}
		for i := range r.portOf {
			r.portOf[i] = -1
		}
		dirs := cfg.Topo.Ports(r.id)
		for pi, d := range dirs {
			p := oPort{dir: d, in: make([]oVC, cfg.VCs), out: make([]oOutVC, cfg.VCs)}
			if d != topology.Local {
				p.link, _ = cfg.Topo.OutLink(r.id, d)
				for v := range p.out {
					p.out[v].credits = cfg.BufDepth
				}
			}
			r.portOf[d] = pi
			r.ports = append(r.ports, p)
		}
		o.routers = append(o.routers, r)
	}
	return o
}

// peer returns the port at the far end of r's port p: the input side a
// flit sent through p lands on, and the output side whose credits a
// flit popped from p's input replenishes.
func (o *oracle) peer(p *oPort) (*oRouter, *oPort) {
	far := o.routers[p.link.Dst]
	return far, &far.ports[far.portOf[p.dir.Opposite()]]
}

func (o *oracle) enqueue(s Spec) {
	o.nextID++
	pkt := &oPacket{id: o.nextID, src: s.Src, dst: s.Dst, size: s.Size, class: s.Class, created: o.cycle, layers: s.LayersPerFlit}
	o.nis[s.Src].queue = append(o.nis[s.Src].queue, pkt)
	o.generatedFlits += int64(s.Size)
}

func (o *oracle) step() {
	o.cycle++
	o.deliver()
	for id := range o.nis {
		o.inject(o.routers[id], &o.nis[id])
	}
	for _, r := range o.routers {
		for pi := range r.ports {
			r.ports[pi].inUsed, r.ports[pi].outUsed = false, false
		}
		o.switchAllocate(r)
	}
	for _, r := range o.routers {
		o.vcAllocate(r)
	}
	for _, r := range o.routers {
		o.routeCompute(r)
	}
}

// deliver hands over everything whose wire delay ends this cycle.
func (o *oracle) deliver() {
	keepC := o.credits[:0]
	for _, c := range o.credits {
		if c.at != o.cycle {
			keepC = append(keepC, c)
			continue
		}
		if c.to.credits++; c.to.credits > o.cfg.BufDepth {
			panic("oracle: credit overflow")
		}
	}
	o.credits = keepC

	keepF := o.flits[:0]
	for _, w := range o.flits {
		if w.at != o.cycle {
			keepF = append(keepF, w)
			continue
		}
		o.arrive(w.router, w.to, w.flit)
	}
	o.flits = keepF

	keepE := o.ejects[:0]
	for _, w := range o.ejects {
		if w.at != o.cycle {
			keepE = append(keepE, w)
			continue
		}
		o.ejectedFlits++
		o.note(ProbeEject, w.router, topology.Local, 0, w.flit)
		if w.flit.tail {
			p := w.flit.pkt
			o.ejected = append(o.ejected, oEjection{id: p.id, cycle: o.cycle, router: w.router.id, created: p.created, injected: p.injected, hops: p.hops})
		}
	}
	o.ejects = keepE
}

// arrive writes a flit into an input buffer; a head landing in an empty
// VC starts that packet's pipeline.
func (o *oracle) arrive(r *oRouter, vc *oVC, f oFlit) {
	if len(vc.buf) >= o.cfg.BufDepth {
		panic(fmt.Sprintf("oracle: router %d buffer overflow", r.id))
	}
	f.arrived = o.cycle
	vc.buf = append(vc.buf, f)
	r.cnt.BufWrites++
	r.cnt.WBufWrites += f.frac(o.cfg.Layers)
	if f.head && len(vc.buf) == 1 {
		if vc.stage != oIdle {
			panic(fmt.Sprintf("oracle: router %d head arrives in a busy VC", r.id))
		}
		o.startHead(r, vc)
	}
}

func (o *oracle) startHead(r *oRouter, vc *oVC) {
	if o.cfg.LookaheadRC {
		o.route(r, vc)
		vc.stage = oWaitVC
	} else {
		vc.stage = oRouting
	}
	vc.readyAt = o.cycle + 1
}

func (o *oracle) route(r *oRouter, vc *oVC) {
	d := topology.Local
	if dst := vc.buf[0].pkt.dst; dst != r.id {
		d = o.cfg.Alg.NextPort(o.cfg.Topo, r.id, dst)
	}
	if vc.out = r.portOf[d]; vc.out < 0 {
		panic(fmt.Sprintf("oracle: router %d routed to missing port %v", r.id, d))
	}
	r.cnt.RCOps++
	o.note(ProbeRoute, r, d, 0, vc.buf[0])
}

// inject moves at most one flit from the NI into the router's local
// port. A new packet takes an idle, empty local VC: its class's under
// ByClass, the lowest-numbered otherwise.
func (o *oracle) inject(r *oRouter, ni *oNI) {
	local := &r.ports[r.portOf[topology.Local]]
	if ni.cur == nil {
		if len(ni.queue) == 0 {
			return
		}
		free := func(v int) bool { return local.in[v].stage == oIdle && len(local.in[v].buf) == 0 }
		vc := -1
		if o.cfg.Policy == ByClass {
			if v := int(ni.queue[0].class); free(v) {
				vc = v
			}
		} else {
			for v := range local.in {
				if free(v) {
					vc = v
					break
				}
			}
		}
		if vc < 0 {
			return
		}
		ni.cur, ni.queue, ni.seq, ni.vc = ni.queue[0], ni.queue[1:], 0, vc
	}
	if len(local.in[ni.vc].buf) >= o.cfg.BufDepth {
		return
	}
	p := ni.cur
	if ni.seq == 0 {
		p.injected = o.cycle
	}
	f := oFlit{pkt: p, seq: ni.seq, head: ni.seq == 0, tail: ni.seq == p.size-1}
	o.note(ProbeInject, r, topology.Local, ni.vc, f)
	o.arrive(r, &local.in[ni.vc], f)
	if ni.seq++; ni.seq == p.size {
		ni.cur = nil
	}
}

// canSend reports whether the front flit of an active VC could cross
// the switch this cycle, counting the stall it suffers if not.
func (o *oracle) canSend(r *oRouter, vc *oVC, count bool) bool {
	if len(vc.buf) == 0 || vc.buf[0].arrived >= o.cycle {
		return false
	}
	op := &r.ports[vc.out]
	if op.link.SerCycles > 1 && o.cycle < op.linkFree {
		if count {
			r.cnt.SerStalls++
		}
		return false
	}
	if op.dir != topology.Local && op.out[vc.outVC].credits <= 0 {
		if count {
			r.cnt.CreditStalls++
		}
		return false
	}
	return true
}

// rank is the QoS tier of a VC's front flit (lower wins): control 0,
// data in flight 1, new data heads 2, each promoted one tier per 16
// cycles waited. Without QoS everything ranks 0.
func (o *oracle) rank(vc *oVC) int {
	f := vc.buf[0]
	if !o.cfg.QoSPriority || f.pkt.class == Control {
		return 0
	}
	rank := 1
	if f.head {
		rank = 2
	}
	return max(0, rank-int((o.cycle-f.arrived)/16))
}

func (o *oracle) switchAllocate(r *oRouter) {
	V := o.cfg.VCs
	n := len(r.ports) * V
	want := make([]int, n) // output port each input VC bids for, -1 = none
	rank := make([]int, n)
	for f := range want {
		want[f] = -1
		vc := &r.ports[f/V].in[f%V]
		if vc.stage != oActive || o.cycle < vc.readyAt || !o.canSend(r, vc, true) {
			continue
		}
		want[f], rank[f] = vc.out, o.rank(vc)
		r.cnt.SAReqs++
	}
	req := make([]bool, n)
	for k := range r.ports {
		oi := int((o.cycle + int64(k)) % int64(len(r.ports)))
		best := -1
		for f := range want {
			if want[f] == oi && !r.ports[f/V].inUsed && (best < 0 || rank[f] < best) {
				best = rank[f]
			}
		}
		if best < 0 {
			continue
		}
		for f := range want {
			req[f] = want[f] == oi && !r.ports[f/V].inUsed && rank[f] == best
		}
		g := r.ports[oi].sa.pick(req)
		o.forward(r, g/V, g%V)
		r.cnt.SAGrants++
	}
}

func (o *oracle) vcAllocate(r *oRouter) {
	V := o.cfg.VCs
	n := len(r.ports) * V
	waiting := func(f int) bool {
		vc := &r.ports[f/V].in[f%V]
		return vc.stage == oWaitVC && o.cycle >= vc.readyAt
	}
	for f := 0; f < n; f++ {
		if waiting(f) {
			r.cnt.VAReqs++
		}
	}
	req := make([]bool, n)
	for oi := range r.ports {
		for ov := 0; ov < V; ov++ {
			ovc := &r.ports[oi].out[ov]
			if ovc.reserved {
				continue
			}
			// A head bids for every free VC of its output port that its
			// class may use. The predicate is evaluated now, not at the top
			// of the stage: a speculative forward earlier in this loop may
			// have moved a VC on to its next packet.
			any := false
			for f := range req {
				vc := &r.ports[f/V].in[f%V]
				req[f] = waiting(f) && vc.out == oi &&
					(o.cfg.Policy != ByClass || ov == int(vc.buf[0].pkt.class))
				any = any || req[f]
			}
			if !any {
				continue
			}
			g := ovc.arb.pick(req)
			vc := &r.ports[g/V].in[g%V]
			ovc.reserved = true
			vc.outVC, vc.stage, vc.readyAt = ov, oActive, o.cycle+1
			r.cnt.VAGrants++
			o.note(ProbeVCAlloc, r, r.ports[oi].dir, ov, vc.buf[0])
			// Speculative switch allocation: the new holder crosses in this
			// same cycle if the switch ports the SA stage left are free.
			if o.cfg.SpecSA && !r.ports[g/V].inUsed && !r.ports[oi].outUsed && o.canSend(r, vc, false) {
				r.cnt.SAReqs++
				r.cnt.SAGrants++
				o.forward(r, g/V, g%V)
			}
		}
	}
}

func (o *oracle) routeCompute(r *oRouter) {
	for pi := range r.ports {
		for v := range r.ports[pi].in {
			vc := &r.ports[pi].in[v]
			if vc.stage != oRouting || o.cycle < vc.readyAt {
				continue
			}
			o.route(r, vc)
			vc.stage, vc.readyAt = oWaitVC, o.cycle+1
		}
	}
}

// forward sends the front flit of input VC (pi, v) through the switch
// to the output its packet holds.
func (o *oracle) forward(r *oRouter, pi, v int) {
	ip := &r.ports[pi]
	vc := &ip.in[v]
	op := &r.ports[vc.out]
	f := vc.buf[0]
	vc.buf = vc.buf[1:]
	frac := f.frac(o.cfg.Layers)
	ip.inUsed, op.outUsed = true, true

	r.cnt.BufReads++
	r.cnt.WBufReads += frac
	r.cnt.XbarFlits++
	r.cnt.WXbarFlits += frac
	o.note(ProbeSAGrant, r, op.dir, vc.outVC, f)

	if ip.dir != topology.Local {
		// The freed slot is reported upstream over the reverse channel.
		_, up := o.peer(ip)
		at := o.cycle + int64(ip.link.Latency) + int64(ip.link.SerCycles) - 1
		o.credits = append(o.credits, oCreditOnWire{at: at, to: &up.out[v]})
	}

	if op.dir == topology.Local {
		o.ejects = append(o.ejects, oFlitOnWire{at: o.cycle + int64(o.cfg.STLTCycles), flit: f, router: r})
	} else {
		if f.head {
			f.pkt.hops++
		}
		ovc := &op.out[vc.outVC]
		if ovc.credits--; ovc.credits < 0 {
			panic(fmt.Sprintf("oracle: router %d negative credits", r.id))
		}
		l := op.link
		r.cnt.LinkFlits++
		r.cnt.WLinkFlits += frac
		r.cnt.LinkMMFlits += l.LengthMM
		r.cnt.WLinkMMFlits += l.LengthMM * frac
		if op.dir.IsExpress() {
			r.cnt.ExpFlits++
		}
		if op.dir.IsVertical() {
			r.cnt.VertFlits++
		}
		if l.Class.IsD2D() {
			r.cnt.D2DFlits++
		}
		if l.SerCycles > 1 {
			op.linkFree = o.cycle + int64(l.SerCycles)
		}
		far, in := o.peer(op)
		at := o.cycle + int64(o.cfg.STLTCycles-1) + int64(l.Latency) + int64(l.SerCycles) - 1
		o.flits = append(o.flits, oFlitOnWire{at: at, flit: f, router: far, to: &in.in[vc.outVC]})
	}

	if f.tail {
		op.out[vc.outVC].reserved = false
		if len(vc.buf) > 0 {
			if !vc.buf[0].head {
				panic(fmt.Sprintf("oracle: router %d flit after tail is not a head", r.id))
			}
			o.startHead(r, vc)
		} else {
			vc.stage = oIdle
		}
	}
}

func (o *oracle) idle() bool {
	return o.generatedFlits == o.ejectedFlits
}

// resetCounters starts a new counting window; flits on the wires count
// their buffer writes when they land, inside it.
func (o *oracle) resetCounters() {
	for _, r := range o.routers {
		r.cnt = Counters{}
	}
}

func (o *oracle) totalCounters() Counters {
	var t Counters
	for _, r := range o.routers {
		t.Add(&r.cnt)
	}
	return t
}

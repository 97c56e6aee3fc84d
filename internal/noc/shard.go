package noc

import (
	"fmt"
	"time"
	"unsafe"

	"mira/internal/topology"
)

// Sharded intra-simulation parallelism. Config.Shards partitions the
// routers (and their NIs) into contiguous ID ranges, and Network.Step
// steps every shard concurrently inside one cycle: each shard delivers
// its own scheduled events, injects its own NIs and runs the SA/VA/RC
// stages over its own routers on a private goroutine, joined by one
// barrier per cycle. A single shard is the same path without the pool:
// the one cycle function, shardCycle, runs inline on the caller, its
// credits ride the lane matrix's diagonal and its outputs go through the
// same buffers and epilogue, so results are bit-identical for any shard
// count.
//
// # Why link latency makes concurrent shards safe
//
// All cross-router interaction flows through scheduled deliveries: a
// forwarded flit lands in the downstream buffer STLTCycles-1 + link
// latency + serialization - 1 >= 1 cycles later, and a credit returns
// after the reverse link's latency (>= 1 cycle). Nothing a router does
// in cycle C can be observed by any other router before cycle C+1, so
// two routers in different shards can run cycle C in either order — or
// at the same time — provided the events they schedule are exchanged at
// the cycle boundary. Shards therefore step without speculation or
// rollback; the per-Step barrier is the only synchronization.
//
// This argument is independent of link timing: a multi-cycle
// die-to-die channel only pushes deliveries further into the future
// (the rings are sized to the slowest link's horizon at construction),
// so shard boundaries need not align with chip boundaries — a shard cut
// through the middle of a chip, or a chip split across shards, is
// exactly as safe as the single-chip case. The chip-grid determinism
// suite pins this by sweeping shard counts that deliberately misalign
// with the chip tiling.
//
// # Ownership and the lane matrix
//
// Every mutable slot of the struct-of-arrays state (soa.go) belongs to
// exactly one router and therefore to exactly one shard; a shard's
// goroutine touches only its own windows. What crosses routers goes
// through the lane matrix mail[src][dst], which only src appends to
// during a cycle and only dst drains (and resets) at the next cycle's
// delivery phase: every credit return, the diagonal lane mail[i][i]
// included, and every flit whose destination router lives in another
// shard (the off-diagonal lanes are the boundary mailboxes the engine
// meter counts). Slots for different cycles are distinct ring entries, so writer
// and reader never touch the same slice header concurrently, and the
// Step barrier orders every append before the matching drain.
// Cross-shard flits carry their body in the lane entry (xEvent.flit) and
// are pushed into the destination ring buffer at delivery time;
// same-shard flits keep the single-copy direct write. The two are
// equivalent because deliveries are FIFO per VC and pops leave head+len
// invariant, so the slot computed at delivery time equals the slot the
// direct write would have reserved at send time.
//
// # The determinism argument
//
// Within a cycle all state a shard reads is its own, and every stage
// visits routers in ascending ID, so the shards together take the
// decisions a single shard takes. What remains is the order of the two
// outputs, the probe stream and the eject callbacks. Delivery emits
// only ejections: a landing head starts in vcRouting and is routed by
// the RC stage (look-ahead routing too, in the cycle it lands), so an
// arrival is unobservable, and its order is free. A VC has one upstream
// channel, which lands at most one flit a cycle, so no arrival order
// moves a flit either; a lane slot and the head ring are drained in any
// order. Ejections never cross a shard and all take STLTCycles, so one
// slot's ejections were sent in one cycle by the shard's own routers, in
// ascending ID within each send phase; the shard keeps one ejection ring
// per send phase (ej[0] = SA, ej[1] = speculative VA).
//
// # The probe-merge contract
//
// With a probe attached, every shard buffers its probe events and marks
// where each stage of the cycle begins in its buffer: ejections of
// SA-phase sends, ejections of VA-phase sends, injection, SA, VA, RC.
// The serial epilogue of Step (drainShardOutputs) hands the buffers to
// the probe stage-major, shard-minor: shards are contiguous ascending ID
// ranges, so that is one stream for every shard count, and traces and
// spans replay byte for byte. One shard's buffer is that stream already,
// so a BatchProbe lends it its own buffer and nothing is copied
// (SetProbe). Eject callbacks are buffered
// and fired in (send phase, shard) order the same way. The probe sees a
// cycle's events at the end of that cycle rather than during it; probes
// only record events (Probe implementations must not mutate the
// network), so the stream, not the timing, is the contract.

// xEvent is one cross-shard lane entry: the arrival of a flit at input
// VC gi (a global flat VC index) of a router in the destination shard. Unlike same-shard forwards, which direct-write the
// flit into its future ring slot at send time, a cross-shard forward
// may not touch the remote shard's arrays mid-cycle, so the entry
// carries the flit body and the destination pushes it at delivery.
type xEvent struct {
	gi   int32
	flit Flit
}

// shardMail is the lane pair for one (source shard, destination shard)
// pair: one arrival lane and one credit lane per ring slot, both
// order-free (package comment). The source appends during its stage
// loops; the destination drains and resets at the delivery cycle's
// boundary. On the diagonal (source = destination) only the credit lane
// carries anything: a same-shard flit is written directly. The rings are
// allocated to the network's ringLen (sized from the slowest link), so
// multi-cycle d2d deliveries slot like any other.
type shardMail struct {
	ev   [][]xEvent
	cred [][]int32
}

// shardHot holds one shard's incrementally maintained backlog counters
// (the network's inFlightFlits/queuedFlits/queuedPackets, split per
// shard).
//
// Layout invariant: the struct is padded to exactly one 64-byte cache
// line, and Network.hot is a contiguous []shardHot, so two shards'
// counters never share a line — the counters are written every
// inject/eject by concurrently running shard goroutines, and sharing a
// line would turn that into false-sharing ping-pong. The compile-time
// assertion below pins the size; keep it when adding fields. Readers
// (InFlightFlits, QueuedFlits, BacklogFlits, Idle) merge the per-shard
// values on demand, outside the stepping goroutines.
//
// The per-router Counters need no such padding: they live inside
// Router, whose stride is far larger than a cache line, so at most the
// one line straddling each shard boundary is ever shared between
// goroutines — negligible next to these per-inject/eject counters,
// which is why they are split out here instead.
type shardHot struct {
	inFlightFlits int64
	queuedFlits   int64
	queuedPackets int64
	_             [40]byte
}

// Compile-time: shardHot is exactly one cache line.
var _ = [1]struct{}{}[unsafe.Sizeof(shardHot{})-64]

// The stages of one cycle, in the order they emit probe events
// (shardState.mark): the ejections of the two send phases, injection
// and the three pipeline stages.
const (
	stEjectSA = iota // ejections of SA-phase sends
	stEjectVA        // ejections of speculative VA-phase sends
	stInject
	stSA
	stVA
	stRC
	numStages
)

// shardState is the per-shard slice of the network's stepping state:
// the head and ejection rings for traffic staying inside the shard, the
// per-stage activity sets restricted to the shard's routers and NIs,
// and the buffered outputs (ejections, probe events) the serial
// epilogue hands over in canonical order.
type shardState struct {
	idx    int32
	lo, hi int32 // router/NI ID range [lo, hi)
	net    *Network
	hot    *shardHot

	// phase selects the send phase (0 = SA, 1 = speculative VA) new
	// ejections are appended under; shardCycle sets it before each stage
	// loop.
	phase int32

	// ev is the shard's ring of head arrivals whose destination router
	// stays in this shard (network.go describes the words), and ej[p] its
	// ring of ejections sent in send phase p. ringLen/ringMask copy the
	// network's dynamic ring geometry for the hot slot math.
	ev       [][]event
	ej       [2][][]ejEntry
	ringLen  int64
	ringMask int64

	// Per-stage activity sets over this shard's routers and NIs (see
	// activity.go; bits outside [lo, hi) are never set). actRC[p] holds
	// the routers with heads to route in the next cycle of parity p.
	actVA, actSA, actNI routerSet
	actRC               [2]routerSet
	actScratch          []int32

	// probeBuf buffers the cycle's probe events while a probe is
	// attached (emit); stage k of the cycle buffered
	// probeBuf[mark[k]:mark[k+1]]. A lone shard with a BatchProbe
	// appends to the probe's buffer, records of earlier cycles ahead.
	probeBuf []ProbeEvent
	mark     [numStages + 1]int

	// ejOut buffers the packets whose tail flit ejected this cycle, per
	// send phase, for the serial epilogue to run the eject callback on and
	// release.
	ejOut [2][]*Packet

	// Engine-meter scratch (enginemeter.go): the goroutine running
	// shardCycle writes these, Step's epilogue reads them after the
	// barrier — the pool's pending count provides the happens-before edge,
	// so no atomics are needed. Unused (stale) when no meter is attached.
	meterT0      time.Time
	meterEnd     time.Time
	meterDrainNs int64

	panicked any
}

// emit buffers the probe event of kind k for flit f for the epilogue,
// reading the packet while the shard owns it; emission sites call it
// only while a probe is attached.
func (sh *shardState) emit(k ProbeKind, cycle int64, router topology.NodeID, d topology.Dir, vc int8, f *Flit) {
	p := f.Pkt
	ev := ProbeEvent{Cycle: cycle, Pkt: p.ID, Router: int32(router), Src: int32(p.Src), Dst: int32(p.Dst),
		Seq: f.Seq, Dir: d, Kind: k, Type: f.Type, Class: p.Class, VC: vc}
	if k == ProbeInject || k == ProbeEject {
		ev.Created = p.CreatedAt
	}
	if k == ProbeInject {
		ev.Layers = f.ActiveLayers
	}
	sh.probeBuf = append(sh.probeBuf, ev)
}

// slot returns the ring slot of delivery cycle at for an event
// scheduled in cycle now. Every ring and lane is ringLen slots long, so
// a delta outside (0, ringLen) would land in the slot being drained or
// on a later cycle's.
func (sh *shardState) slot(now, at int64) int64 {
	if d := at - now; d <= 0 || d >= sh.ringLen {
		panic("noc: schedule delta out of range")
	}
	return at & sh.ringMask
}

// members returns the routers (or NIs) one stage of the cycle visits, in
// ascending ID order: a snapshot of the stage's activity set, taken
// immediately before the stage runs, so routers activated by an earlier
// stage of the same cycle are visited too (with look-ahead routing, the
// heads delivery, injection, SA and VA start join this cycle's RC set).
func (sh *shardState) members(set *routerSet) []int32 {
	if set.n == 0 {
		return nil
	}
	sh.actScratch = set.appendMembers(sh.actScratch[:0])
	return sh.actScratch
}

// stepSharded runs one cycle over len(shards) > 1: shard 0 on the calling
// goroutine, the others on their persistent workers (pool.go). The
// pool's barrier is the only synchronization (package comment).
func (n *Network) stepSharded() {
	p := n.pool
	if p == nil {
		p = newShardPool(n)
		n.pool = p
	}
	p.publish()
	n.runShardCycle(&n.shards[0])
	parked := p.await(&p.caller, &p.pending, 0)
	if meter := n.meter; meter != nil {
		if parked {
			meter.parks.Add(1)
		}
		// A shard's barrier wait is the gap between finishing its cycle
		// and the last shard finishing (= the join returning): the
		// signature of imbalance, since every early finisher burns it.
		joined := time.Now()
		for i := range n.shards {
			if w := joined.Sub(n.shards[i].meterEnd).Nanoseconds(); w > 0 {
				meter.shards[i].barrierNs.Add(w)
			}
		}
	}
	for i := range n.shards {
		if p := n.shards[i].panicked; p != nil {
			n.shards[i].panicked = nil
			panic(p)
		}
	}
}

// shardCycle is the cycle: one shard's share of it, which on a single
// shard is all of it. Deliver what was scheduled for this cycle, inject
// from the NIs (one flit per node per cycle), then run the router
// pipelines in reverse stage order — SA, VA, RC — so a flit advances at
// most one stage per cycle.
func (n *Network) shardCycle(sh *shardState) {
	cycle := n.cycle
	meter := n.meter
	if meter != nil {
		sh.meterT0 = time.Now()
	}
	sh.phase = 0
	n.deliver(sh)
	if meter != nil {
		sh.meterDrainNs = time.Since(sh.meterT0).Nanoseconds()
	}

	// Injection and the pipeline stages over this shard's members, each
	// marking where its probe events begin. The send phase tracks the
	// stage so appended ejections land in their phase's ring.
	sh.mark[stInject] = len(sh.probeBuf)
	for _, id := range sh.members(&sh.actNI) {
		n.inject(topology.NodeID(id))
	}
	sh.mark[stSA] = len(sh.probeBuf)
	for _, id := range sh.members(&sh.actSA) {
		n.routers[id].stepSA(cycle)
	}
	sh.phase = 1
	sh.mark[stVA] = len(sh.probeBuf)
	for _, id := range sh.members(&sh.actVA) {
		n.routers[id].stepVA(cycle)
	}
	sh.mark[stRC] = len(sh.probeBuf)
	for _, id := range sh.members(&sh.actRC[cycle&1]) {
		n.routers[id].stepRC(cycle)
	}
	sh.mark[numStages] = len(sh.probeBuf)
	if meter != nil {
		sh.meterEnd = time.Now()
	}
}

// deliver is the first step of shardCycle: it hands shard sh the credits
// and events scheduled for this cycle, from its inbound lanes and its own
// rings. It is a function of its own only to keep its loops' registers
// apart from the stage loops' (ur6x6_sparse runs ~2 % slower with the
// body inline).
func (n *Network) deliver(sh *shardState) {
	cycle := n.cycle
	slot := cycle & sh.ringMask
	meter := n.meter

	// The inbound lanes, in ascending source order, the shard's own
	// credit lane mail[sh.idx][sh.idx] among them. A credit return is a
	// bare increment of the flat credit array, so its order against
	// anything else in the cycle is unobservable; the fixed lane order
	// keeps the overflow panic deterministic. Cross-shard arrivals land
	// in any order (package comment); the meter counts the words a
	// single shard would deliver: a lane's heads.
	credits, depth := n.soa.credits, int32(n.cfg.BufDepth)
	ownerOf, vcState, vcFrontAt := n.soa.ownerOf, n.soa.vcState, n.soa.vcFrontAt
	for s := range n.mail {
		m := &n.mail[s][sh.idx]
		if cs := m.cred[slot]; len(cs) > 0 {
			m.cred[slot] = cs[:0]
			if meter != nil && s != int(sh.idx) {
				meter.cross[s*len(n.shards)+int(sh.idx)].credits.Add(int64(len(cs)))
			}
			for _, ci := range cs {
				credits[ci]++
				if credits[ci] > depth {
					panic(fmt.Sprintf("noc: credit overflow at flat credit slot %d", ci))
				}
			}
		}
		xs := m.ev[slot]
		if len(xs) == 0 {
			continue
		}
		m.ev[slot] = xs[:0]
		if meter != nil {
			meter.cross[s*len(n.shards)+int(sh.idx)].flits.Add(int64(len(xs)))
			heads := int64(0)
			for k := range xs {
				if xs[k].flit.Type.IsHead() {
					heads++
				}
			}
			meter.shards[sh.idx].ringWords.Add(heads)
		}
		for k := range xs {
			// A cross-shard flit carries its body: push it into the ring
			// now (the slot equals the one a send-time direct write would
			// have taken, because deliveries are FIFO per VC and
			// cross-shard channels never hold direct writes).
			x := &xs[k]
			r := &n.routers[ownerOf[x.gi]]
			fi := int(x.gi - r.vcBase)
			r.vcPush(fi, x.flit, cycle)
			r.arrive(fi, &x.flit)
		}
	}

	// The shard's own head words, in any order. A word is the
	// destination's global flat VC index (forward wrote and counted the
	// flit): an idle VC holds no landed flit, so the head is its front
	// and starts. Otherwise the tail ahead of it starts it (forward); a
	// busy VC whose front lands now is a bug (landHead). New words only
	// ever target future slots (slot rejects d <= 0), so every ring slot
	// is safe to reset before its loop.
	if heads := sh.ev[slot]; len(heads) > 0 {
		sh.ev[slot] = heads[:0]
		if meter != nil {
			meter.shards[sh.idx].ringWords.Add(int64(len(heads)))
		}
		for _, gi := range heads {
			if vcState[gi] == vcIdle || vcFrontAt[gi] == cycle {
				r := &n.routers[ownerOf[gi]]
				r.landHead(gi - r.vcBase)
			}
		}
	}

	// The ejections, per send phase, each phase marking its stage.
	for p := range sh.ej {
		sh.mark[stEjectSA+p] = len(sh.probeBuf)
		ej := sh.ej[p][slot]
		if len(ej) == 0 {
			continue
		}
		sh.ej[p][slot] = ej[:0]
		if meter != nil {
			meter.shards[sh.idx].ringWords.Add(int64(len(ej)))
		}
		sh.hot.inFlightFlits -= int64(len(ej))
		for k := range ej {
			e := &ej[k]
			if n.probe != nil {
				sh.emit(ProbeEject, cycle, topology.NodeID(e.router), 0, 0, &e.flit)
			}
			if e.flit.Type.IsTail() {
				e.flit.Pkt.EjectedAt = cycle
				sh.ejOut[p] = append(sh.ejOut[p], e.flit.Pkt)
			}
		}
	}
}

// drainShardOutputs is the serial epilogue of every step: hand the
// buffered probe records to the probe stage-major, shard-minor, then
// finish the buffered ejected packets (eject callback, release) in (send
// phase, shard) order — on one shard, the order the cycle emitted them in.
func (n *Network) drainShardOutputs() {
	if b := n.batch; b != nil && len(n.shards) == 1 {
		// The one shard's buffer is the probe's, stage-major already.
		n.shards[0].probeBuf = b.Flush(n.shards[0].probeBuf)
	} else if n.probe != nil {
		buf := n.batchBuf
		for k := 0; k < numStages; k++ {
			for i := range n.shards {
				sh := &n.shards[i]
				recs := sh.probeBuf[sh.mark[k]:sh.mark[k+1]]
				if b != nil {
					buf = append(buf, recs...)
					continue
				}
				for _, ev := range recs {
					n.probe.ProbeEvent(ev)
				}
			}
		}
		for i := range n.shards {
			n.shards[i].probeBuf = n.shards[i].probeBuf[:0]
		}
		if b != nil {
			n.batchBuf = b.Flush(buf)
		}
	}
	for p := 0; p < 2; p++ {
		for i := range n.shards {
			sh := &n.shards[i]
			for _, pkt := range sh.ejOut[p] {
				n.finishPacket(pkt)
			}
			sh.ejOut[p] = sh.ejOut[p][:0]
		}
	}
}

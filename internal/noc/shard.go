package noc

import (
	"fmt"
	"sort"
	"time"
	"unsafe"

	"mira/internal/topology"
)

// Sharded intra-simulation parallelism. Config.Shards partitions the
// routers (and their NIs) into contiguous ID ranges, and Network.Step
// steps every shard concurrently inside one cycle: each shard delivers
// its own scheduled events, injects its own NIs and runs the SA/VA/RC
// stages over its own routers on a private goroutine, joined by one
// barrier per cycle. Results are bit-identical to sequential stepping
// (Shards <= 1) for any shard count — the same contract the activity
// path keeps against the full scan (activity.go).
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
// This argument is independent of the link class: a multi-cycle
// die-to-die channel only pushes deliveries further into the future
// (the rings are sized to the slowest link's horizon at construction),
// so shard boundaries need not align with chip boundaries — a shard cut
// through the middle of a chip, or a chip split across shards, is
// exactly as safe as the single-chip case. The chip-grid determinism
// suite pins this by sweeping shard counts that deliberately misalign
// with the chip tiling.
//
// # Ownership and the boundary mailboxes
//
// Every mutable slot of the struct-of-arrays state (soa.go) belongs to
// exactly one router and therefore to exactly one shard; a shard's
// goroutine touches only its own windows. The one cross-shard pathway —
// a flit or credit leaving shard s for shard d — goes through the
// boundary mailbox mail[s][d], which only s appends to during a cycle
// and only d drains (and resets) at the next cycle's delivery phase.
// Slots for different cycles are distinct ring entries, so writer and
// reader never touch the same slice header concurrently, and the Step
// barrier orders every append before the matching drain. Cross-shard
// flits carry their body in the mailbox entry (xEvent.flit) and are
// pushed into the destination ring buffer at delivery time; same-shard
// flits keep the PR 6 single-copy direct write. The two are equivalent
// because deliveries are FIFO per VC and pops leave head+len invariant,
// so the slot computed at delivery time equals the slot the direct
// write would have reserved at send time.
//
// # The determinism argument
//
// Sequential stepping appends each cycle's events in a canonical order:
// first every SA-stage forward (routers in ascending ID, output ports
// in rotated order within a router), then every speculative VA-stage
// forward (again routers ascending). Shards are contiguous ascending ID
// ranges, so that global order is exactly "for each send phase, for
// each shard in ascending index order, that shard's appends in its own
// program order". The event rings and mailboxes are therefore
// segmented by send phase (ev[0] = SA, ev[1] = VA), and the delivery
// phase drains, for each phase, the lanes in ascending source-shard
// order — reproducing the sequential delivery order event for event no
// matter when each shard actually ran. Delivery order is the only
// cross-shard ordering that matters: within a cycle all other state a
// shard reads is its own. TestShardMailboxDrainOrder pins the drain
// order; the determinism suite pins end-to-end bit-identity.
//
// # The probe-merge contract
//
// With a probe attached, every shard buffers its probe events instead
// of calling the probe from its goroutine, tagging each event with a
// sort key (send phase or pipeline stage, source shard, per-shard
// append sequence). The serial epilogue of Step merges the buffers by
// key (stable, so events of one action keep their emission order) and
// replays them into the real probe — the identical stream sequential
// stepping emits, so traces and spans replay byte for byte at any
// shard count. Eject callbacks are buffered and fired the same way.
// Relative to sequential stepping the probe sees a cycle's events at
// the end of that cycle rather than during it; probes only record
// events (Probe implementations must not mutate the network), so the
// stream, not the timing, is the contract.

// xEvent is one cross-shard boundary-mailbox entry: the arrival of a
// flit at input VC gi (a global flat VC index) of a router in the
// destination shard. Unlike same-shard forwards, which direct-write the
// flit into its future ring slot at send time, a cross-shard forward
// may not touch the remote shard's arrays mid-cycle, so the entry
// carries the flit body and the destination pushes it at delivery. idx
// is the sender's per-cycle append sequence number, used only to merge
// probe events into the canonical order (zero when unobserved).
type xEvent struct {
	gi   int32
	idx  int32
	flit Flit
}

// shardMail is the boundary mailbox for one (source shard, destination
// shard) pair: per-send-phase, per-ring-slot arrival lanes plus a
// credit lane (credits are order-free increments, so they need no phase
// segmentation). The source appends during its stage loops; the
// destination drains and resets at the delivery cycle's boundary. The
// rings are allocated to the network's ringLen (sized from the slowest
// link), so multi-cycle d2d deliveries slot like any other.
type shardMail struct {
	ev   [2][][]xEvent
	cred [][]int32
}

// shardHot holds one shard's incrementally maintained backlog counters
// (the per-network inFlightFlits/queuedFlits/queuedPackets of the
// sequential core, split per shard) plus the per-cycle probe append
// sequence.
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
	seq           int32
	_             [36]byte
}

// Compile-time: shardHot is exactly one cache line.
var _ = [1]struct{}{}[unsafe.Sizeof(shardHot{})-64]

// keyedProbeEvent pairs a buffered probe event with its merge key.
type keyedProbeEvent struct {
	key uint64
	ev  ProbeEvent
}

// Probe merge-key phase indices, in the order sequential stepping runs
// the phases of one cycle. The delivery phases come first (one per send
// phase of the previous cycle's appends), then injection and the three
// pipeline stages.
const (
	pkDeliverSA = iota // delivery of SA-phase appends
	pkDeliverVA        // delivery of speculative VA-phase appends
	pkInject
	pkSA
	pkVA
	pkRC
)

// probeKey builds the merge key for one emitting action: phase index,
// source shard, and the source's append sequence (zero for the stage
// phases, where events of one shard are merged in emission order and
// cross-shard order is fixed by the shard index alone).
func probeKey(phase int, srcShard, seq int32) uint64 {
	return uint64(phase)<<56 | uint64(uint32(srcShard))<<40 | uint64(uint32(seq))
}

// shardState is the per-shard slice of the network's stepping state:
// the event/ejection/credit rings for traffic staying inside the
// shard, the per-stage activity sets restricted to the shard's routers
// and NIs, and the buffered outputs (ejections, probe events) the
// serial epilogue replays in canonical order. With Shards <= 1 the
// single shard's rings and sets are the network's rings and sets, and
// the sequential step path uses them directly.
type shardState struct {
	idx    int32
	lo, hi int32 // router/NI ID range [lo, hi)
	net    *Network
	hot    *shardHot

	// phase selects the send-phase segment (0 = SA, 1 = speculative VA)
	// new arrivals and ejections are appended under; the sharded cycle
	// sets it before each stage loop. Sequential stepping leaves it 0,
	// collapsing ev to the single ring of the unsharded core.
	phase int32

	// ev/ejRing/cred are the shard's own scheduling rings, exactly the
	// network rings of the sequential core restricted to traffic whose
	// destination router stays in this shard. evIdx carries the
	// per-cycle append sequence of each ev entry, maintained only when a
	// probe is attached to a sharded network (stamp). ringLen/ringMask
	// copy the network's dynamic ring geometry for the hot slot math.
	ev       [2][][]event
	evIdx    [2][][]int32
	ejRing   [][]ejEntry
	cred     [][]int32
	ringLen  int64
	ringMask int64

	// Per-stage activity sets over this shard's routers and NIs (see
	// activity.go; bits outside [lo, hi) are never set).
	actRC, actVA, actSA, actNI routerSet
	actScratch                 []int32

	// probe is where this shard's emission sites send events: the
	// network probe itself when stepping sequentially, the shard's own
	// buffering sink (ProbeEvent below) when sharded, nil when
	// unobserved. stamp mirrors "sharded and observed" for the append
	// paths; probeKey is the merge key of the action currently running.
	probe    Probe
	stamp    bool
	probeKey uint64
	probeBuf []keyedProbeEvent

	// ejOut buffers the packets whose tail flit ejected this cycle, per
	// send phase, for the serial epilogue's eject callbacks.
	ejOut [2][]*Packet

	// Engine-meter scratch (enginemeter.go): the shard's worker writes
	// these during its cycle, the serial epilogue reads them after the
	// barrier — the pool's pending count provides the happens-before edge,
	// so no atomics are needed. Unused (stale) when no meter is attached.
	meterT0      time.Time
	meterEnd     time.Time
	meterBusyNs  int64
	meterDrainNs int64

	panicked any
}

// ProbeEvent implements Probe: the shard's emission sites buffer their
// events under the current action's merge key for the epilogue merge.
func (sh *shardState) ProbeEvent(ev ProbeEvent) {
	sh.probeBuf = append(sh.probeBuf, keyedProbeEvent{key: sh.probeKey, ev: ev})
}

// evSlot returns the shard's arrival-event lane for delivery cycle at
// under the current send phase, validating the horizon like the
// sequential slotFor did.
func (sh *shardState) evSlot(now, at int64) *[]event {
	if d := at - now; d <= 0 || d >= sh.ringLen {
		panic("noc: schedule delta out of range")
	}
	return &sh.ev[sh.phase][at&sh.ringMask]
}

// credSlot is evSlot's counterpart for the shard's own credit ring.
func (sh *shardState) credSlot(now, at int64) *[]int32 {
	if d := at - now; d <= 0 || d >= sh.ringLen {
		panic("noc: schedule delta out of range")
	}
	return &sh.cred[at&sh.ringMask]
}

// mailEvSlot returns the boundary-mailbox arrival lane from shard src
// toward shard dst for delivery cycle at, under src's current phase.
func (n *Network) mailEvSlot(src *shardState, dst int32, at int64) *[]xEvent {
	if d := at - n.cycle; d <= 0 || d >= n.ringLen {
		panic("noc: schedule delta out of range")
	}
	return &n.mail[src.idx][dst].ev[src.phase][at&n.ringMask]
}

// mailCredSlot is mailEvSlot's counterpart for credit returns.
func (n *Network) mailCredSlot(src *shardState, dst int32, at int64) *[]int32 {
	if d := at - n.cycle; d <= 0 || d >= n.ringLen {
		panic("noc: schedule delta out of range")
	}
	return &n.mail[src.idx][dst].cred[at&n.ringMask]
}

// stepSharded advances one cycle with len(shards) > 1: shard 0 runs its
// delivery, injection and pipeline stages on the calling goroutine, the
// others on their persistent workers (pool.go), and the serial epilogue
// replays the buffered probe events and eject callbacks in canonical
// order. The pool's barrier is the only synchronization (package comment).
func (n *Network) stepSharded() {
	p := n.pool
	if p == nil {
		p = newShardPool(n)
		n.pool = p
	}
	meter := n.meter
	var t0 time.Time
	if meter != nil {
		t0 = time.Now()
	}
	p.publish()
	n.runShardCycle(&n.shards[0])
	if p.await(&p.caller, &p.pending, 0) && meter != nil {
		meter.parks.Add(1)
	}
	var barrierEnd time.Time
	if meter != nil {
		barrierEnd = time.Now()
	}
	for i := range n.shards {
		if p := n.shards[i].panicked; p != nil {
			n.shards[i].panicked = nil
			panic(p)
		}
	}
	if meter != nil {
		// Fold the workers' scratch timings into the meter totals. The
		// per-shard barrier wait is the gap between that shard finishing
		// its cycle and the last shard finishing (= the join returning):
		// the signature of imbalance, since every early finisher burns it
		// waiting.
		for i := range n.shards {
			sh := &n.shards[i]
			ms := &meter.shards[i]
			ms.busyNs.Add(sh.meterBusyNs)
			ms.drainNs.Add(sh.meterDrainNs)
			if w := barrierEnd.Sub(sh.meterEnd).Nanoseconds(); w > 0 {
				ms.barrierNs.Add(w)
			}
			ms.cycles.Add(1)
		}
	}
	n.drainShardOutputs()
	if n.cfg.Mode == StepChecked {
		if err := n.CheckInvariants(); err != nil {
			panic(fmt.Sprintf("noc: checked step failed at cycle %d: %v", n.cycle, err))
		}
	}
	if meter != nil {
		meter.stepNs.Add(time.Since(t0).Nanoseconds())
		meter.cycles.Add(1)
	}
}

// shardCycle runs one shard's share of the cycle: deliver credits and
// events addressed to this shard (own rings plus every inbound
// mailbox, in canonical phase-then-source order), then inject and step
// the pipeline stages over the shard's routers.
func (n *Network) shardCycle(sh *shardState) {
	slot := n.cycle & sh.ringMask
	sh.hot.seq = 0
	sh.phase = 0

	// Credits: own ring first, then inbound mailbox lanes. Credit
	// delivery is a bare increment, so the order is unobservable; it is
	// fixed anyway (ascending source shard) to keep the walk cheap and
	// the overflow panic deterministic.
	depth := int32(n.cfg.BufDepth)
	creds := sh.cred[slot]
	sh.cred[slot] = creds[:0]
	for _, ci := range creds {
		n.soa.credits[ci]++
		if n.soa.credits[ci] > depth {
			panic(fmt.Sprintf("noc: credit overflow at flat credit slot %d", ci))
		}
	}
	for s := range n.shards {
		if int32(s) == sh.idx {
			continue
		}
		mcreds := n.mail[s][sh.idx].cred[slot]
		n.mail[s][sh.idx].cred[slot] = mcreds[:0]
		if n.meter != nil && len(mcreds) > 0 {
			n.meter.cross[s*len(n.shards)+int(sh.idx)].credits.Add(int64(len(mcreds)))
		}
		for _, ci := range mcreds {
			n.soa.credits[ci]++
			if n.soa.credits[ci] > depth {
				panic(fmt.Sprintf("noc: credit overflow at flat credit slot %d", ci))
			}
		}
	}

	// Events, in the canonical sequential order: for each send phase,
	// sources in ascending shard order (the shard's own ring takes its
	// place among them), entries in append order.
	observed := sh.probe != nil
	for p := 0; p < 2; p++ {
		for s := range n.shards {
			if int32(s) == sh.idx {
				events := sh.ev[p][slot]
				sh.ev[p][slot] = events[:0]
				idxs := sh.evIdx[p][slot]
				sh.evIdx[p][slot] = idxs[:0]
				for k, ev := range events {
					if observed {
						var seq int32
						if k < len(idxs) {
							seq = idxs[k]
						}
						sh.probeKey = probeKey(p, sh.idx, seq)
					}
					if ev >= 0 {
						n.deliverArrival(ev)
						continue
					}
					sh.hot.inFlightFlits--
					e := &sh.ejRing[slot][^ev]
					if observed {
						sh.ProbeEvent(ProbeEvent{Kind: ProbeEject, Cycle: n.cycle, Router: topology.NodeID(e.router), Flit: e.flit})
					}
					if e.flit.Type.IsTail() {
						pkt := e.flit.Pkt
						pkt.EjectedAt = n.cycle
						if n.onEject != nil {
							sh.ejOut[p] = append(sh.ejOut[p], pkt)
						}
					}
				}
				continue
			}
			m := &n.mail[s][sh.idx]
			xs := m.ev[p][slot]
			m.ev[p][slot] = xs[:0]
			if n.meter != nil && len(xs) > 0 {
				n.meter.cross[s*len(n.shards)+int(sh.idx)].flits.Add(int64(len(xs)))
			}
			for k := range xs {
				x := &xs[k]
				if observed {
					sh.probeKey = probeKey(p, int32(s), x.idx)
				}
				n.deliverMailArrival(x)
			}
		}
	}
	sh.ejRing[slot] = sh.ejRing[slot][:0]
	if n.meter != nil {
		sh.meterDrainNs = time.Since(sh.meterT0).Nanoseconds()
	}

	// Injection and the pipeline stages over this shard's routers, in
	// the same reverse-stage order as sequential stepping. The send
	// phase tracks the stage so appended events land in the segment the
	// delivery order above expects.
	if observed {
		sh.probeKey = probeKey(pkInject, sh.idx, 0)
	}
	if n.cfg.Mode == StepFullScan {
		for i := sh.lo; i < sh.hi; i++ {
			n.inject(topology.NodeID(i))
		}
		if observed {
			sh.probeKey = probeKey(pkSA, sh.idx, 0)
		}
		for i := sh.lo; i < sh.hi; i++ {
			n.routers[i].stepSAFull(n.cycle)
		}
		sh.phase = 1
		if observed {
			sh.probeKey = probeKey(pkVA, sh.idx, 0)
		}
		for i := sh.lo; i < sh.hi; i++ {
			n.routers[i].stepVAFull(n.cycle)
		}
		if observed {
			sh.probeKey = probeKey(pkRC, sh.idx, 0)
		}
		for i := sh.lo; i < sh.hi; i++ {
			n.routers[i].stepRCFull(n.cycle)
		}
		return
	}
	sh.actScratch = sh.actNI.appendMembers(sh.actScratch[:0])
	for _, id := range sh.actScratch {
		n.inject(topology.NodeID(id))
	}
	if observed {
		sh.probeKey = probeKey(pkSA, sh.idx, 0)
	}
	sh.actScratch = sh.actSA.appendMembers(sh.actScratch[:0])
	for _, id := range sh.actScratch {
		n.routers[id].stepSA(n.cycle)
	}
	sh.phase = 1
	if observed {
		sh.probeKey = probeKey(pkVA, sh.idx, 0)
	}
	sh.actScratch = sh.actVA.appendMembers(sh.actScratch[:0])
	for _, id := range sh.actScratch {
		n.routers[id].stepVA(n.cycle)
	}
	if observed {
		sh.probeKey = probeKey(pkRC, sh.idx, 0)
	}
	sh.actScratch = sh.actRC.appendMembers(sh.actScratch[:0])
	for _, id := range sh.actScratch {
		n.routers[id].stepRC(n.cycle)
	}
}

// deliverArrival exposes a same-shard link arrival: the flit was
// direct-written into its ring slot by the upstream forward, and ev is
// the destination's global flat VC index. Must stay behaviourally
// identical to the inlined arrival branch of the sequential step.
func (n *Network) deliverArrival(ev event) {
	r := &n.routers[n.soa.ownerOf[ev]]
	fi := int(ev - r.vcBase)
	f := r.vcArrive(fi)
	r.Counters.BufWrites++
	r.Counters.WBufWrites += r.layerFracN(f.ActiveLayers)
	if f.Type.IsHead() && r.vcOcc(fi) == 1 {
		if r.vcState[fi] != vcIdle {
			r.badArrivalState(fi)
		}
		r.startHead(int32(fi), n.cycle)
	}
}

// deliverMailArrival lands a cross-shard flit carried by a boundary
// mailbox: push the body into the destination ring (the slot equals the
// one a send-time direct write would have reserved, because deliveries
// are FIFO per VC and cross-shard channels never hold in-fly
// reservations) and run the same arrival bookkeeping as deliverArrival.
func (n *Network) deliverMailArrival(x *xEvent) {
	r := &n.routers[n.soa.ownerOf[x.gi]]
	fi := int(x.gi - r.vcBase)
	r.vcPush(fi, x.flit, n.cycle)
	r.Counters.BufWrites++
	r.Counters.WBufWrites += r.layerFracN(x.flit.ActiveLayers)
	if x.flit.Type.IsHead() && r.vcOcc(fi) == 1 {
		if r.vcState[fi] != vcIdle {
			r.badArrivalState(fi)
		}
		r.startHead(int32(fi), n.cycle)
	}
}

// drainShardOutputs is the serial epilogue of a sharded step: merge and
// replay the buffered probe events in canonical key order, then fire
// the buffered eject callbacks in canonical (send phase, shard) order —
// the order sequential stepping invokes them in.
func (n *Network) drainShardOutputs() {
	if n.probe != nil {
		buf := n.probeScratch[:0]
		for i := range n.shards {
			sh := &n.shards[i]
			buf = append(buf, sh.probeBuf...)
			sh.probeBuf = sh.probeBuf[:0]
		}
		// Stable: events sharing a key were emitted by one action of one
		// shard and appended in emission order, which the merge keeps.
		sort.SliceStable(buf, func(a, b int) bool { return buf[a].key < buf[b].key })
		for i := range buf {
			n.probe.ProbeEvent(buf[i].ev)
		}
		n.probeScratch = buf[:0]
	}
	for p := 0; p < 2; p++ {
		for i := range n.shards {
			sh := &n.shards[i]
			for _, pkt := range sh.ejOut[p] {
				n.onEject(pkt)
			}
			sh.ejOut[p] = sh.ejOut[p][:0]
		}
	}
}

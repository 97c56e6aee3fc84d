package noc

import (
	"cmp"
	"fmt"
	"slices"
	"time"
	"unsafe"

	"mira/internal/topology"
)

// Sharded intra-simulation parallelism. Config.Shards partitions the
// routers (and their NIs) into contiguous ID ranges, and Network.Step
// steps every shard concurrently inside one cycle: each shard delivers
// its own scheduled events, injects its own NIs and runs the SA/VA/RC
// stages over its own routers on a private goroutine, joined by one
// barrier per cycle. Sequential stepping (Shards <= 1) is the same
// cycle function, shardCycle, run over the one shard inline on the
// caller, and results are bit-identical for any shard count.
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
// sort key (send phase or pipeline stage, send cycle, source shard,
// per-shard append sequence). The serial epilogue of Step merges the buffers by
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
// is the sender's stamp (nextStamp), used only to merge probe events
// into the canonical order (zero when unobserved).
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
// (the network's inFlightFlits/queuedFlits/queuedPackets, split per
// shard) plus the per-cycle probe append sequence.
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
// then the source's stamp split around the source shard (zero for the
// stage phases, where events of one shard are merged in emission order
// and cross-shard order is fixed by the shard index alone).
func probeKey(phase int, srcShard, stamp int32) uint64 {
	return uint64(phase)<<61 | uint64(stamp>>stampSeqBits)<<48 | uint64(uint32(srcShard))<<32 | uint64(stamp&(1<<stampSeqBits-1))
}

// A stamp (nextStamp) packs ringLen-delta (< 2^12, the ring horizon being
// <= 2048) above the per-cycle append sequence (< 2^19): a delivery slot holds
// sends of several cycles over links of different delays, which sequential
// stepping appended in send order. Zero (unobserved) sorts first.
const stampSeqBits = 19

// nextStamp stamps an arrival delivered delta cycles from now.
func (sh *shardState) nextStamp(delta int64) int32 {
	sh.hot.seq++
	return int32(sh.ringLen-delta)<<stampSeqBits | sh.hot.seq
}

// shardState is the per-shard slice of the network's stepping state:
// the event/ejection/credit rings for traffic staying inside the
// shard, the per-stage activity sets restricted to the shard's routers
// and NIs, and the buffered outputs (ejections, probe events) the
// serial epilogue replays in canonical order. With Shards <= 1 the
// single shard's rings and sets are the network's rings and sets.
type shardState struct {
	idx    int32
	lo, hi int32 // router/NI ID range [lo, hi)
	net    *Network
	hot    *shardHot

	// phase selects the send-phase segment (0 = SA, 1 = speculative VA)
	// new arrivals and ejections are appended under; shardCycle sets it
	// before each stage loop.
	phase int32

	// ev/ejRing/cred are the shard's own scheduling rings, carrying the
	// traffic whose destination router stays in this shard (network.go
	// describes the event words). evIdx carries the
	// stamp (nextStamp) of each ev entry, maintained only when a
	// probe is attached to a sharded network (stamp). ringLen/ringMask
	// copy the network's dynamic ring geometry for the hot slot math.
	ev       [2][][]event
	evIdx    [2][][]int32
	ejRing   [][]ejEntry
	cred     [][]int32
	ringLen  int64
	ringMask int64

	// Per-stage activity sets over this shard's routers and NIs (see
	// activity.go; bits outside [lo, hi) are never set). actRC[p] holds
	// the routers with heads to route in the next cycle of parity p.
	actVA, actSA, actNI routerSet
	actRC               [2]routerSet
	actScratch          []int32

	// probe is where this shard's emission sites send events: the
	// network probe itself on a single shard, the shard's own buffering
	// sink (ProbeEvent below) when sharded, nil when unobserved. stamp
	// mirrors "sharded and observed": only then are merge keys and append
	// sequence numbers maintained; probeKey is the merge key of the
	// action currently running.
	probe    Probe
	stamp    bool
	probeKey uint64
	probeBuf []keyedProbeEvent

	// ejOut buffers the packets whose tail flit ejected this cycle, per
	// send phase, for the serial epilogue to run the eject callback on and
	// release (sharded only; a single shard does both in deliver).
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

// ProbeEvent implements Probe: the shard's emission sites buffer their
// events under the current action's merge key for the epilogue merge.
func (sh *shardState) ProbeEvent(ev ProbeEvent) {
	sh.probeBuf = append(sh.probeBuf, keyedProbeEvent{key: sh.probeKey, ev: ev})
}

// evSlot returns the shard's arrival-event lane for delivery cycle at
// under the current send phase, validating the ring horizon.
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

// members returns the routers (or NIs) one stage of the cycle visits, in
// ascending ID order: a snapshot of the stage's activity set, taken
// immediately before the stage runs, so routers activated by an earlier
// stage of the same cycle are visited too (VA finds their look-ahead
// heads not ready and does nothing; RC's set is this cycle's parity,
// which nothing joins during the cycle).
func (sh *shardState) members(set *routerSet) []int32 {
	if set.n == 0 {
		return nil
	}
	sh.actScratch = set.appendMembers(sh.actScratch[:0])
	return sh.actScratch
}

// setKey stamps the merge key of the stage the shard is about to run.
func (sh *shardState) setKey(phase int) {
	if sh.stamp {
		sh.probeKey = probeKey(phase, sh.idx, 0)
	}
}

// stepSharded runs one cycle over len(shards) > 1: shard 0 on the calling
// goroutine, the others on their persistent workers (pool.go), then the
// serial epilogue replays the buffered probe events and eject callbacks
// in canonical order. The pool's barrier is the only synchronization
// (package comment).
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
	n.drainShardOutputs()
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

	// Injection and the pipeline stages over this shard's members. The
	// send phase tracks the stage so appended events land in the segment
	// deliver's order expects.
	sh.setKey(pkInject)
	for _, id := range sh.members(&sh.actNI) {
		n.inject(topology.NodeID(id))
	}
	sh.setKey(pkSA)
	for _, id := range sh.members(&sh.actSA) {
		n.routers[id].stepSA(cycle)
	}
	sh.phase = 1
	sh.setKey(pkVA)
	for _, id := range sh.members(&sh.actVA) {
		n.routers[id].stepVA(cycle)
	}
	sh.setKey(pkRC)
	for _, id := range sh.members(&sh.actRC[cycle&1]) {
		n.routers[id].stepRC(cycle)
	}
	if meter != nil {
		sh.meterEnd = time.Now()
	}
}

// deliver is the first step of shardCycle: it hands shard sh the credits
// and events scheduled for this cycle, from its own rings and from every
// inbound mailbox, in the canonical phase-then-source order. It is a
// function of its own only to keep its loops' registers apart from the
// stage loops' (ur6x6_sparse runs ~2 % slower with the body inline).
func (n *Network) deliver(sh *shardState) {
	cycle := n.cycle
	slot := cycle & sh.ringMask
	meter := n.meter

	// Credits: the shard's own lane, then the inbound mailbox lanes in
	// ascending source order (n.mail is nil on a single shard, and
	// mail[i][i] stays empty). A credit return is a bare increment of the
	// flat credit array, so its order against anything else in the cycle
	// is unobservable; the fixed lane order keeps the overflow panic
	// deterministic.
	credits, depth := n.soa.credits, int32(n.cfg.BufDepth)
	for s, lane := -1, &sh.cred[slot]; ; lane = &n.mail[s][sh.idx].cred[slot] {
		if len(*lane) > 0 {
			if s >= 0 && meter != nil {
				meter.cross[s*len(n.shards)+int(sh.idx)].credits.Add(int64(len(*lane)))
			}
			for _, ci := range *lane {
				credits[ci]++
				if credits[ci] > depth {
					panic(fmt.Sprintf("noc: credit overflow at flat credit slot %d", ci))
				}
			}
			*lane = (*lane)[:0]
		}
		if s++; s == len(n.mail) {
			break
		}
	}

	// Events, in the canonical order: for each send phase, sources in
	// ascending shard order (the shard's own ring takes its place among
	// them), entries in append order. The meter counts the words a
	// sequential run would deliver: a mailbox lane's heads, a ring slot's
	// every word.
	stamp := sh.stamp
	if stamp {
		sh.hot.seq = 0
	}
	ownerOf, vcState, vcFrontAt := n.soa.ownerOf, n.soa.vcState, n.soa.vcFrontAt
	for p := 0; p < 2; p++ {
		for s := range n.shards {
			if int32(s) != sh.idx {
				m := &n.mail[s][sh.idx]
				xs := m.ev[p][slot]
				if len(xs) == 0 {
					continue
				}
				m.ev[p][slot] = xs[:0]
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
					// A cross-shard flit carries its body: push it into the
					// ring now (the slot equals the one a send-time direct
					// write would have taken, because deliveries are FIFO per
					// VC and cross-shard channels never hold direct writes).
					x := &xs[k]
					if stamp {
						sh.probeKey = probeKey(p, int32(s), x.idx)
					}
					r := &n.routers[ownerOf[x.gi]]
					fi := int(x.gi - r.vcBase)
					r.vcPush(fi, x.flit, cycle)
					r.arrive(fi, &x.flit, cycle)
				}
				continue
			}
			events := sh.ev[p][slot]
			if len(events) == 0 {
				continue
			}
			sh.ev[p][slot] = events[:0]
			if meter != nil {
				meter.shards[sh.idx].ringWords.Add(int64(len(events)))
			}
			idxs := sh.evIdx[p][slot]
			sh.evIdx[p][slot] = idxs[:0]
			for k, ev := range events {
				if stamp {
					// Entries appended before the probe was attached
					// carry no stamp.
					var stamp int32
					if k < len(idxs) {
						stamp = idxs[k]
					}
					sh.probeKey = probeKey(p, sh.idx, stamp)
				}
				if ev >= 0 {
					// A head landing at ev, the destination's global flat VC
					// index (forward wrote and counted it): an idle VC holds
					// no landed flit, so the head is its front and starts.
					// Otherwise the tail ahead of it starts it (forward);
					// a busy VC whose front lands now is a bug (landHead).
					if vcState[ev] == vcIdle || vcFrontAt[ev] == cycle {
						r := &n.routers[ownerOf[ev]]
						r.landHead(ev-r.vcBase, cycle)
					}
					continue
				}
				sh.hot.inFlightFlits--
				e := &sh.ejRing[slot][^ev]
				if sh.probe != nil {
					sh.probe.ProbeEvent(ProbeEvent{Kind: ProbeEject, Cycle: cycle, Router: topology.NodeID(e.router), Flit: e.flit})
				}
				if e.flit.Type.IsTail() {
					pkt := e.flit.Pkt
					pkt.EjectedAt = cycle
					if n.mail != nil { // sharded: the epilogue finishes it
						sh.ejOut[p] = append(sh.ejOut[p], pkt)
						continue
					}
					n.finishPacket(pkt)
				}
			}
		}
	}
	// New events only ever target future slots (evSlot rejects d <= 0),
	// so the payload slice is safe to recycle once the loops are done.
	if ej := sh.ejRing[slot]; len(ej) > 0 {
		sh.ejRing[slot] = ej[:0]
	}
}

// drainShardOutputs is the serial epilogue of a sharded step: merge and
// replay the buffered probe events in canonical key order, then finish
// the buffered ejected packets (eject callback, release) in canonical
// (send phase, shard) order — the order sequential stepping does.
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
		slices.SortStableFunc(buf, func(a, b keyedProbeEvent) int { return cmp.Compare(a.key, b.key) })
		for i := range buf {
			n.probe.ProbeEvent(buf[i].ev)
		}
		n.probeScratch = buf[:0]
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

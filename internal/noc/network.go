package noc

import (
	"fmt"
	"time"

	"mira/internal/topology"
)

// A head landing in a downstream buffer of its own shard travels the
// head ring as one int32 word: the destination's global flat VC index
// (the flit itself was written into that VC's ring slot at send time,
// and a body flit needs no word at all: soa.go). A flit leaving the
// network at the NI travels its send phase's ejection ring as an
// ejEntry. Credit returns and cross-shard flits travel the lane matrix
// (shard.go): a credit touches only the flat credit array and never
// emits a probe event, so it needs neither ordering against deliveries
// nor a payload.
type event = int32

// ejEntry is one ejection: the flit handed to the NI and the router it
// left from (for the eject probe).
type ejEntry struct {
	flit   Flit
	router int32 // topology.NodeID
}

// minRingLen is the floor of the per-network event-ring length. The
// ring must cover the longest scheduling delta — ST+LT (<= 2 cycles)
// plus the slowest link's latency and serialization — so NewNetwork
// sizes it to the next power of two above that horizon, never below
// this historical minimum (which keeps the slot arithmetic of all
// on-chip topologies, whose deltas are <= 3, bit-for-bit unchanged).
const minRingLen = 8

// ni is the network interface at one node: an unbounded source queue and
// the wormhole injection state of the packet currently entering the
// router.
//
// The queue is a slice with an explicit head cursor rather than a
// re-sliced FIFO: popping via queue[1:] strands the consumed prefix of
// the backing array, so under steady traffic every Enqueue append
// reallocates. With the cursor, the slice resets to its full capacity
// whenever it drains and steady-state enqueues stay allocation-free.
type ni struct {
	queue     []injJob
	qhead     int
	cur       injJob
	injecting bool
	curVC     int
	curSeq    int
}

// pending returns the queued jobs not yet handed to the injector.
func (s *ni) pending() []injJob { return s.queue[s.qhead:] }

// injJob pairs a packet with its per-flit layer profile.
type injJob struct {
	pkt    *Packet
	layers []uint8 // nil = all layers
}

// Network instantiates routers over a topology and advances them cycle
// by cycle.
type Network struct {
	cfg Config
	// routers is a contiguous value slice: the per-router headers (the
	// window slice descriptors and counters) sit side by side in one
	// allocation, so event delivery and the stage dispatch loops index
	// into a dense array instead of chasing per-router heap pointers.
	routers []Router
	nis     []ni
	cycle   int64

	// shards partitions the routers/NIs into contiguous ID ranges that
	// step concurrently (shard.go); each shard owns the head and
	// ejection rings and activity sets for its range. hot holds the
	// cache-line-padded per-shard backlog counters the accessors below
	// merge on read. mail is the S x S lane matrix (mail[src][dst]) that
	// carries every credit return and every cross-shard flit.
	shards []shardState
	hot    []shardHot
	mail   [][]shardMail
	// pool holds the shard workers; nil until a sharded step starts it (pool.go).
	pool *shardPool

	// ringLen is the event-ring length (a power of two >= minRingLen
	// sized from the topology's slowest link) and ringMask its slot
	// mask; every shard ring and lane is allocated to it.
	ringLen  int64
	ringMask int64

	// soa owns the flattened router-pipeline state; every Router holds
	// windows (sub-slices) of these arrays. See soa.go.
	soa soaState
	// layerFrac[k] precomputes k/Layers for the counts Router.layersN
	// returns, so the per-flit weighted counters cost a table lookup
	// instead of a float divide.
	layerFrac []float64

	nextPacketID int64
	// Packets come from pktSlab, the unused rest of the newest slab, and
	// return to pktFree once delivered (finishPacket), so a steady-state
	// run allocates a slab only when its in-flight peak grows.
	pktSlab []Packet
	pktFree []*Packet

	// onEject is invoked when a packet's tail flit leaves the network.
	onEject func(*Packet)

	// probe, when non-nil, observes every pipeline event (see probe.go).
	// Emission sites nil-check it so an unobserved network pays one
	// branch per site and nothing else; they buffer into their shard
	// (shardState.emit) for Step's epilogue to replay.
	probe Probe

	// meter, when non-nil, accumulates engine self-telemetry — per-shard
	// wall time per cycle phase, boundary-mailbox crossing counts — with
	// the same one-branch-when-detached contract as probe (see
	// enginemeter.go).
	meter *EngineMeter
}

// NewNetwork builds a network from cfg. It panics on invalid
// configurations; use cfg.Validate for a non-panicking check.
func NewNetwork(cfg Config) *Network {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := &Network{cfg: cfg}
	num := cfg.Topo.NumNodes()
	n.routers = make([]Router, num)
	n.nis = make([]ni, num)
	n.layerFrac = make([]float64, cfg.Layers+1)
	for k := 1; k <= cfg.Layers; k++ {
		n.layerFrac[k] = float64(k) / float64(cfg.Layers)
	}
	// Two-phase construction: build the port metadata views first (the
	// flat-array sizes depend on every router's port count), then
	// allocate the struct-of-arrays state once and hand each router its
	// windows.
	totalPorts := 0
	for i := range n.routers {
		initRouter(&n.routers[i], n, topology.NodeID(i))
		totalPorts += len(n.routers[i].inPorts)
	}
	n.soa = newSoAState(&n.cfg, totalPorts*cfg.VCs, totalPorts)
	vcBase, portBase := 0, 0
	for i := range n.routers {
		r := &n.routers[i]
		r.bind(&n.soa, vcBase, portBase)
		for k := 0; k < len(r.inPorts)*cfg.VCs; k++ {
			n.soa.ownerOf[vcBase+k] = int32(i)
		}
		portBase += len(r.inPorts)
		vcBase += len(r.inPorts) * cfg.VCs
	}
	// Event-ring horizon: the largest scheduling delta is an arrival
	// over the slowest link (ST+LT-1 cycles of pipeline plus the link's
	// latency and serialization); credit returns (latency + ser - 1)
	// and ejections (ST+LT) are never later. Round up to a power of
	// two, no smaller than the historical minimum.
	maxDelta := int64(cfg.STLTCycles-1) + int64(cfg.Topo.MaxLinkDelay())
	n.ringLen = minRingLen
	for n.ringLen <= maxDelta {
		n.ringLen <<= 1
	}
	n.ringMask = n.ringLen - 1
	// Shard setup: contiguous router-ID ranges, as equal as integer
	// division allows. Shards = 0 (the default) means one shard —
	// sequential stepping; -1 picks a count from the mesh size and
	// GOMAXPROCS (autoShards); the count is clamped to the router
	// count. This must precede the third pass below, which bakes each
	// port's upstream/downstream shard into the port views.
	S := cfg.Shards
	if S == AutoShards {
		S = autoShards(num)
	}
	if S < 1 {
		S = 1
	}
	if S > num {
		S = num
	}
	n.shards = make([]shardState, S)
	n.hot = make([]shardHot, S)
	n.mail = make([][]shardMail, S)
	for i := range n.mail {
		n.mail[i] = make([]shardMail, S)
		for j := range n.mail[i] {
			m := &n.mail[i][j]
			m.ev = make([][]xEvent, n.ringLen)
			m.cred = make([][]int32, n.ringLen)
		}
	}
	for i := 0; i < S; i++ {
		sh := &n.shards[i]
		sh.idx = int32(i)
		sh.lo = int32(i * num / S)
		sh.hi = int32((i + 1) * num / S)
		sh.net = n
		sh.hot = &n.hot[i]
		sh.ringLen = n.ringLen
		sh.ringMask = n.ringMask
		sh.ev = make([][]event, n.ringLen)
		for p := range sh.ej {
			sh.ej[p] = make([][]ejEntry, n.ringLen)
		}
		sh.actRC = [2]routerSet{newRouterSet(num), newRouterSet(num)}
		sh.actVA = newRouterSet(num)
		sh.actSA = newRouterSet(num)
		sh.actNI = newRouterSet(num)
		sh.actScratch = make([]int32, 0, sh.hi-sh.lo)
		for ri := sh.lo; ri < sh.hi; ri++ {
			n.routers[ri].sh = sh
			n.routers[ri].shard = int32(i)
		}
	}
	// Third pass: precompute each input port's upstream credit slot and
	// credit lane and each output port's downstream VC base and shard,
	// which need every router's credBase/vcBase (bind) and shard
	// assignment fixed first.
	for i := range n.routers {
		r := &n.routers[i]
		for pi := range r.inPorts {
			ip := &r.inPorts[pi]
			ip.upCredBase = -1
			if ip.upstream < 0 {
				continue
			}
			up := &n.routers[ip.upstream]
			oi := up.outIndex[ip.dir.Opposite()]
			if oi < 0 {
				panic(fmt.Sprintf("noc: router %d has no return port toward %d", ip.upstream, r.id))
			}
			ip.upCredBase = up.credBase + int32(int(oi)*cfg.VCs)
			ip.credLane = n.mail[r.shard][up.shard].cred
		}
		for oi := range r.outPorts {
			op := &r.outPorts[oi]
			op.downVCBase = -1
			op.downShard = r.shard
			if !op.hasLink {
				continue
			}
			down := &n.routers[op.link.Dst]
			dpi := down.inIndex[op.dir.Opposite()]
			if dpi < 0 {
				panic(fmt.Sprintf("noc: link from %d via %v lands on missing port", r.id, op.dir))
			}
			op.downVCBase = down.vcBase + int32(int(dpi)*cfg.VCs)
			op.downShard = down.shard
			op.down = down
		}
	}
	return n
}

// Config returns the network configuration.
func (n *Network) Config() *Config { return &n.cfg }

// Cycle returns the current simulation cycle.
func (n *Network) Cycle() int64 { return n.cycle }

// Router returns the router at node id (for tests and instrumentation).
func (n *Network) Router(id topology.NodeID) *Router { return &n.routers[id] }

// Shards returns the effective shard count (>= 1; see Config.Shards).
func (n *Network) Shards() int { return len(n.shards) }

// SetEjectHandler installs the packet-completion callback.
func (n *Network) SetEjectHandler(fn func(*Packet)) { n.onEject = fn }

// pktSlabLen is the number of packets allocated at a time.
const pktSlabLen = 256

// Enqueue places a packet described by spec into its source NI queue at
// the current cycle. The returned *Packet is valid until its tail's
// eject callback returns: the network then reuses it for a later
// Enqueue, so a caller that needs the record longer copies it (the rule
// DESIGN §11 states for events).
func (n *Network) Enqueue(spec Spec) (*Packet, error) {
	if err := spec.Validate(n.cfg.Topo.NumNodes()); err != nil {
		return nil, err
	}
	var pkt *Packet
	if k := len(n.pktFree) - 1; k >= 0 {
		pkt, n.pktFree = n.pktFree[k], n.pktFree[:k]
	} else {
		if len(n.pktSlab) == 0 {
			n.pktSlab = make([]Packet, pktSlabLen)
		}
		pkt, n.pktSlab = &n.pktSlab[0], n.pktSlab[1:]
	}
	n.nextPacketID++
	*pkt = Packet{
		ID:        n.nextPacketID,
		Src:       spec.Src,
		Dst:       spec.Dst,
		Size:      spec.Size,
		Class:     spec.Class,
		CreatedAt: n.cycle,
	}
	n.nis[spec.Src].queue = append(n.nis[spec.Src].queue, injJob{pkt: pkt, layers: spec.LayersPerFlit})
	sh := n.routers[spec.Src].sh
	sh.hot.queuedPackets++
	sh.hot.queuedFlits += int64(pkt.Size)
	sh.actNI.add(int(spec.Src))
	return pkt, nil
}

// finishPacket completes a packet whose tail flit has left the network:
// the eject callback runs, then the record returns to the free list.
// Serial by construction: only Step's epilogue (drainShardOutputs)
// calls it.
func (n *Network) finishPacket(pkt *Packet) {
	if n.onEject != nil {
		n.onEject(pkt)
	}
	n.pktFree = append(n.pktFree, pkt)
}

// QueuedPackets returns packets waiting in, or currently entering
// through, source NIs (merged over the per-shard counters).
func (n *Network) QueuedPackets() int64 {
	var t int64
	for i := range n.hot {
		t += n.hot[i].queuedPackets
	}
	return t
}

// InFlightFlits returns flits buffered in routers or on links.
func (n *Network) InFlightFlits() int64 {
	var t int64
	for i := range n.hot {
		t += n.hot[i].inFlightFlits
	}
	return t
}

// QueuedFlits returns flits of enqueued packets that have not yet been
// injected into a router.
func (n *Network) QueuedFlits() int64 {
	var t int64
	for i := range n.hot {
		t += n.hot[i].queuedFlits
	}
	return t
}

// BacklogFlits returns the total network backlog: flits waiting in NI
// queues plus flits buffered in routers or on links. It merges the
// per-shard incremental counters and is therefore O(Shards); the
// simulator samples it every drain cycle for saturation and deadlock
// detection.
func (n *Network) BacklogFlits() int64 {
	var t int64
	for i := range n.hot {
		t += n.hot[i].queuedFlits + n.hot[i].inFlightFlits
	}
	return t
}

// Idle reports whether no traffic remains anywhere in the network.
// inFlightFlits is summed before the test: a flit that crosses a shard
// boundary is counted up in its source shard and down in its
// destination, so only the total is meaningful. queuedPackets never
// leaves the shard that enqueued it and is tested per shard.
func (n *Network) Idle() bool {
	var inFlight int64
	for i := range n.hot {
		if n.hot[i].queuedPackets != 0 {
			return false
		}
		inFlight += n.hot[i].inFlightFlits
	}
	return inFlight == 0
}

// Step advances the simulation by one cycle. There is one cycle function
// (shardCycle, shard.go) and this is its only driver: a single shard runs
// it inline on the caller, two or more run it concurrently behind the
// pool barrier (stepSharded), and the serial epilogue then fires the
// cycle's buffered probe events and eject callbacks. Results are
// bit-identical for any shard count.
func (n *Network) Step() {
	n.cycle++
	meter := n.meter
	var t0 time.Time
	if meter != nil {
		t0 = time.Now()
	}
	if len(n.shards) == 1 {
		n.shardCycle(&n.shards[0])
	} else {
		n.stepSharded()
	}
	n.drainShardOutputs()
	if n.cfg.Mode == StepChecked {
		if err := n.CheckInvariants(); err != nil {
			panic(fmt.Sprintf("noc: checked step failed at cycle %d: %v", n.cycle, err))
		}
	}
	if meter != nil {
		// Fold the per-shard scratch timings shardCycle left behind into
		// the meter totals (the barrier, where there is one, ordered
		// those writes before this read).
		for i := range n.shards {
			sh, ms := &n.shards[i], &meter.shards[i]
			ms.busyNs.Add(sh.meterEnd.Sub(sh.meterT0).Nanoseconds())
			ms.drainNs.Add(sh.meterDrainNs)
			ms.cycles.Add(1)
		}
		meter.stepNs.Add(time.Since(t0).Nanoseconds())
		meter.cycles.Add(1)
	}
}

// inject advances the NI at node id by at most one flit. It touches
// only state of id's shard (the NI, the router's local port, the
// shard's hot counters and NI set), so shards inject concurrently.
func (n *Network) inject(id topology.NodeID) {
	s := &n.nis[id]
	r := &n.routers[id]
	sh := r.sh
	lpi := int(r.inIndex[topology.Local])

	if !s.injecting {
		// An NI is in the active set only while it has work (it leaves
		// below with its last flit), so a packet is waiting here.
		job := s.queue[s.qhead]
		vc := n.pickInjectionVC(r, lpi, job.pkt.Class)
		if vc < 0 {
			return // all suitable local VCs busy
		}
		s.queue[s.qhead] = injJob{} // release the Packet reference
		s.qhead++
		if s.qhead == len(s.queue) {
			s.queue, s.qhead = s.queue[:0], 0
		}
		s.cur = job
		s.injecting = true
		s.curVC = vc
		s.curSeq = 0
	}

	fi := r.flatVC(lpi, s.curVC)
	if int(r.vcLen[fi]) >= n.cfg.BufDepth {
		return // wait for space
	}
	job := s.cur
	f := Flit{Pkt: job.pkt, Seq: int32(s.curSeq)}
	switch {
	case job.pkt.Size == 1:
		f.Type = HeadTailFlit
	case s.curSeq == 0:
		f.Type = HeadFlit
	case s.curSeq == job.pkt.Size-1:
		f.Type = TailFlit
	default:
		f.Type = BodyFlit
	}
	if job.layers != nil {
		f.ActiveLayers = job.layers[s.curSeq]
	}
	if f.Type.IsHead() {
		job.pkt.InjectedAt = n.cycle
	}
	if n.probe != nil {
		sh.emit(ProbeInject, n.cycle, id, topology.Local, int8(s.curVC), &f)
	}
	r.vcPush(fi, f, n.cycle)
	r.arrive(fi, &f)
	sh.hot.inFlightFlits++
	sh.hot.queuedFlits--
	s.curSeq++
	if s.curSeq == job.pkt.Size {
		s.cur = injJob{}
		s.injecting = false
		sh.hot.queuedPackets--
		if len(s.pending()) == 0 {
			sh.actNI.remove(int(id))
		}
	}
}

// pickInjectionVC selects an idle VC of router r's local input port
// (index lpi) for a new packet, or -1.
func (n *Network) pickInjectionVC(r *Router, lpi int, c Class) int {
	base := r.flatVC(lpi, 0)
	if n.cfg.Policy == ByClass {
		v := int(c)
		if r.vcState[base+v] == vcIdle && r.vcLen[base+v] == 0 {
			return v
		}
		return -1
	}
	for v := 0; v < r.vcsPerPort; v++ {
		if r.vcState[base+v] == vcIdle && r.vcLen[base+v] == 0 {
			return v
		}
	}
	return -1
}

// TotalCounters aggregates all router activity counters (Router.Counters).
func (n *Network) TotalCounters() Counters {
	var total Counters
	for i := range n.routers {
		c := n.routers[i].Counters()
		total.Add(&c)
	}
	return total
}

// RouterCounters returns per-router counters indexed by node ID (a copy).
func (n *Network) RouterCounters() []Counters {
	out := make([]Counters, len(n.routers))
	for i := range n.routers {
		out[i] = n.routers[i].Counters()
	}
	return out
}

// ResetCounters zeroes all router counters (called at the end of warm-up
// so that power reflects the measurement window only), keeping the
// writes of flits still on the wire: they land inside the new window.
func (n *Network) ResetCounters() {
	for i := range n.routers {
		r := &n.routers[i]
		writes, layers := r.onWire()
		r.cnt, r.bufLayers = Counters{BufWrites: writes}, layers
	}
}

// Occupancy returns the total number of buffered flits (diagnostics).
func (n *Network) Occupancy() int {
	total := 0
	for i := range n.routers {
		total += n.routers[i].Occupancy()
	}
	return total
}

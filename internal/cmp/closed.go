package cmp

import (
	"fmt"

	"mira/internal/noc"
	"mira/internal/stats"
	"mira/internal/topology"
)

// Closed-loop co-simulation. The paper's methodology (and this
// package's System type) is open-loop: coherence traces are generated
// first and replayed through the NoC afterwards, so network congestion
// cannot delay the protocol. ClosedSystem goes beyond that: the MESI
// protocol engines inject their messages into a live noc.Network and
// react to actual deliveries, so CPU miss latency includes real network
// queueing — the end-to-end quantity a CMP architect ultimately cares
// about.

// protoMsg is the protocol context attached to an in-flight packet.
type protoMsg struct {
	kind MsgKind
	addr uint32
	cpu  int // requesting CPU for responses/acks, owner for forwards
	// forWrite distinguishes write forwards (owner invalidates) from
	// read forwards (owner downgrades to Shared under MESI, or keeps
	// the line Owned under MOESI).
	forWrite bool
}

// ClosedStats summarizes a closed-loop run.
type ClosedStats struct {
	Accesses, L1Hits, L1Misses int64
	KindCounts                 [NumKinds]int64
	// MissLatency measures issue -> data arrival in cycles, the
	// end-to-end L2 access time including real network contention.
	MissLatency stats.Mean
	// NetworkPackets counts messages that actually crossed the NoC.
	NetworkPackets int64
}

// ClosedSystem couples the protocol engines to a live network.
type ClosedSystem struct {
	hierarchy
	cfg     noc.Config
	net     *noc.Network
	nodeCPU map[topology.NodeID]int // reverse CPU lookup

	inflight    map[*noc.Packet]protoMsg
	scheduled   map[int64][]func()
	outstanding []int
	issueTime   map[reqKey]issueInfo
	// bankFreeAt serializes each L2 bank: one access per BankLat window
	// (a contended home bank queues requests, §4.1.2's bank model).
	bankFreeAt map[topology.NodeID]int64

	stats ClosedStats
}

type reqKey struct {
	cpu  int
	addr uint32
}

// issueInfo records an outstanding miss: when it was issued and whether
// it was a store (which installs the line Modified).
type issueInfo struct {
	at    int64
	write bool
}

// NewClosedSystem builds a co-simulation; cfg must use the same
// topology as p.Topo and the ByClass VC policy (requests and responses
// must ride separate virtual networks).
func NewClosedSystem(p Params, cfg noc.Config) (*ClosedSystem, error) {
	if cfg.Topo != p.Topo {
		return nil, fmt.Errorf("cmp: closed system topology mismatch")
	}
	if cfg.Policy != noc.ByClass {
		return nil, fmt.Errorf("cmp: closed system requires the ByClass VC policy")
	}
	h, err := newHierarchy(p)
	if err != nil {
		return nil, err
	}
	s := &ClosedSystem{
		hierarchy:   h,
		cfg:         cfg,
		net:         noc.NewNetwork(cfg),
		nodeCPU:     make(map[topology.NodeID]int),
		inflight:    make(map[*noc.Packet]protoMsg),
		scheduled:   make(map[int64][]func()),
		outstanding: make([]int, len(h.cpuNodes)),
		issueTime:   make(map[reqKey]issueInfo),
		bankFreeAt:  make(map[topology.NodeID]int64),
	}
	for i, n := range s.cpuNodes {
		s.nodeCPU[n] = i
	}
	s.net.SetEjectHandler(s.onDeliver)
	return s, nil
}

// send injects a protocol message into the network. Local (src == dst)
// messages dispatch immediately without touching the NoC.
func (s *ClosedSystem) send(m protoMsg, src, dst topology.NodeID) {
	s.stats.KindCounts[m.kind]++
	if src == dst {
		s.dispatch(m, dst)
		return
	}
	size := ControlFlits
	class := noc.Control
	var layers []uint8
	if m.kind.IsData() {
		size = DataFlits
		class = noc.Data
		l := s.dataPayload()
		layers = l.layers()
	} else {
		layers = controlLayers // address/coherence flits are short (§3.2.1)
	}
	pkt, err := s.net.Enqueue(noc.Spec{Src: src, Dst: dst, Size: size, Class: class, LayersPerFlit: layers})
	if err != nil {
		panic(fmt.Sprintf("cmp: closed-loop enqueue: %v", err))
	}
	s.inflight[pkt] = m
	s.stats.NetworkPackets++
}

// onDeliver reacts to a packet reaching its destination.
func (s *ClosedSystem) onDeliver(pkt *noc.Packet) {
	m, ok := s.inflight[pkt]
	if !ok {
		panic("cmp: delivered packet without protocol context")
	}
	delete(s.inflight, pkt)
	s.dispatch(m, pkt.Dst)
}

// after schedules fn to run delay cycles from now (bank/memory access
// latencies).
func (s *ClosedSystem) after(delay int64, fn func()) {
	at := s.net.Cycle() + delay
	s.scheduled[at] = append(s.scheduled[at], fn)
}

// bankAfter schedules fn behind the bank's service queue: each access
// occupies the bank for BankLat cycles, so a contended bank adds real
// queueing delay on top of the access latency.
func (s *ClosedSystem) bankAfter(bank topology.NodeID, accessLat int64, fn func()) {
	now := s.net.Cycle()
	start := now
	if free := s.bankFreeAt[bank]; free > start {
		start = free
	}
	s.bankFreeAt[bank] = start + s.p.BankLat
	s.scheduled[start+accessLat] = append(s.scheduled[start+accessLat], fn)
}

// dispatch is the protocol state machine, keyed by message kind and
// receiving node.
func (s *ClosedSystem) dispatch(m protoMsg, at topology.NodeID) {
	switch m.kind {
	case KindGetS:
		s.bankGetS(m, at)
	case KindGetX, KindUpgrade:
		s.bankGetX(m, at)
	case KindFwd:
		s.ownerFwd(m, at)
	case KindInv:
		if cpu, ok := s.nodeCPU[at]; ok {
			s.l1s[cpu].SetState(m.addr, Invalid)
			// Acknowledge to the home bank (collected there; the
			// requester completes on its data/grant arrival).
			s.send(protoMsg{kind: KindAck, addr: m.addr, cpu: cpu}, at, s.bankOf(m.addr))
		}
	case KindAck:
		// Upgrade grants complete at the requester; invalidation acks
		// land at the home bank and carry no further action here.
		if at == s.cpuNodes[m.cpu] {
			s.completeIfUpgrade(m)
		}
	case KindData:
		s.cpuData(m, at)
	case KindWriteBack:
		// Dirty line lands at its home bank; directory already updated
		// by the sender.
	}
}

// bankGetS handles a read request at the home bank.
func (s *ClosedSystem) bankGetS(m protoMsg, bank topology.NodeID) {
	e := s.dirs[bank].Entry(m.addr)
	if e.owner >= 0 && int(e.owner) != m.cpu {
		owner := int(e.owner)
		e.addSharer(owner)
		if s.p.Protocol != MOESI {
			e.owner = -1
		}
		e.addSharer(m.cpu)
		s.send(protoMsg{kind: KindFwd, addr: m.addr, cpu: m.cpu}, bank, s.cpuNodes[owner])
		return
	}
	lat := s.l2Latency()
	if e.sharers == 0 && e.owner < 0 {
		e.owner = int8(m.cpu)
	}
	e.addSharer(m.cpu)
	resp := protoMsg{kind: KindData, addr: m.addr, cpu: m.cpu}
	cpuNode := s.cpuNodes[m.cpu]
	s.bankAfter(bank, lat, func() { s.send(resp, bank, cpuNode) })
}

// bankGetX handles a write/upgrade request at the home bank.
func (s *ClosedSystem) bankGetX(m protoMsg, bank topology.NodeID) {
	e := s.dirs[bank].Entry(m.addr)
	if e.owner >= 0 && int(e.owner) != m.cpu {
		owner := int(e.owner)
		e.clearAll()
		e.owner = int8(m.cpu)
		e.addSharer(m.cpu)
		s.send(protoMsg{kind: KindFwd, addr: m.addr, cpu: m.cpu, forWrite: true}, bank, s.cpuNodes[owner])
		return
	}
	for _, sh := range e.Sharers() {
		if sh == m.cpu {
			continue
		}
		s.send(protoMsg{kind: KindInv, addr: m.addr, cpu: sh}, bank, s.cpuNodes[sh])
	}
	upgrade := m.kind == KindUpgrade
	e.clearAll()
	e.owner = int8(m.cpu)
	e.addSharer(m.cpu)
	cpuNode := s.cpuNodes[m.cpu]
	if upgrade {
		grant := protoMsg{kind: KindAck, addr: m.addr, cpu: m.cpu}
		s.bankAfter(bank, s.p.BankLat, func() { s.send(grant, bank, cpuNode) })
		return
	}
	lat := s.l2Latency()
	resp := protoMsg{kind: KindData, addr: m.addr, cpu: m.cpu}
	s.bankAfter(bank, lat, func() { s.send(resp, bank, cpuNode) })
}

// ownerFwd handles a forward at the current owner: it supplies the line
// to the requester cache-to-cache. For write forwards ownership moves
// with the data. For read forwards the owner downgrades to Shared and
// writes back immediately (MESI), or retires to the Owned state keeping
// the dirty copy (MOESI).
func (s *ClosedSystem) ownerFwd(m protoMsg, at topology.NodeID) {
	owner, ok := s.nodeCPU[at]
	if !ok {
		panic("cmp: forward delivered to a non-CPU node")
	}
	st := s.l1s[owner].Lookup(m.addr)
	bank := s.bankOf(m.addr)
	switch {
	case m.forWrite:
		s.l1s[owner].SetState(m.addr, Invalid)
	case s.p.Protocol == MOESI:
		if st != Invalid {
			s.l1s[owner].SetState(m.addr, Owned)
		}
	default:
		if st.Dirty() {
			s.send(protoMsg{kind: KindWriteBack, addr: m.addr, cpu: owner}, at, bank)
		}
		s.l1s[owner].SetState(m.addr, Shared)
	}
	s.send(protoMsg{kind: KindData, addr: m.addr, cpu: m.cpu}, at, s.cpuNodes[m.cpu])
}

// cpuData completes a miss at the requesting CPU: stores install the
// line Modified, loads install it Shared (conservative: a load that was
// in fact unshared forgoes the silent-E optimization and pays a later
// upgrade, slightly over-approximating control traffic).
func (s *ClosedSystem) cpuData(m protoMsg, at topology.NodeID) {
	cpu, ok := s.nodeCPU[at]
	if !ok || cpu != m.cpu {
		panic("cmp: data delivered to wrong node")
	}
	st := Shared
	if info, ok := s.issueTime[reqKey{cpu, m.addr}]; ok && info.write {
		st = Modified
	}
	s.finishMiss(cpu, m.addr, st)
}

// completeIfUpgrade finishes an upgrade transaction (ack grant instead
// of data).
func (s *ClosedSystem) completeIfUpgrade(m protoMsg) {
	cpu := m.cpu
	if _, ok := s.issueTime[reqKey{cpu, m.addr}]; !ok {
		return // stray ack from an invalidation
	}
	s.l1s[cpu].SetState(m.addr, Modified)
	s.recordCompletion(cpu, m.addr)
}

func (s *ClosedSystem) finishMiss(cpu int, addr uint32, st LineState) {
	// The line can already be resident when an upgrade raced a remote
	// GetX and was answered with data; just adjust its state.
	if s.l1s[cpu].Lookup(addr) != Invalid {
		s.l1s[cpu].SetState(addr, st)
		s.recordCompletion(cpu, addr)
		return
	}
	if victim, bank, dirty := s.fill(cpu, addr, st); dirty {
		s.send(protoMsg{kind: KindWriteBack, addr: victim, cpu: cpu}, s.cpuNodes[cpu], bank)
	}
	s.recordCompletion(cpu, addr)
}

func (s *ClosedSystem) recordCompletion(cpu int, addr uint32) {
	key := reqKey{cpu, addr}
	if info, ok := s.issueTime[key]; ok {
		s.stats.MissLatency.Add(float64(s.net.Cycle() - info.at))
		delete(s.issueTime, key)
		s.outstanding[cpu]--
	}
}

// issue runs one CPU cycle: maybe start a memory access.
func (s *ClosedSystem) issue(cpu int) {
	if s.outstanding[cpu] >= s.p.MaxOutstanding {
		return
	}
	addr, ok := s.access(cpu)
	if !ok {
		return
	}
	s.stats.Accesses++
	key := reqKey{cpu, addr}
	if _, dup := s.issueTime[key]; dup {
		return // already outstanding to this line; coalesce into the MSHR
	}
	isRead, hit, st := s.lookup(cpu, addr)
	if hit {
		s.stats.L1Hits++
		return
	}
	s.stats.L1Misses++
	kind := KindGetS
	if !isRead {
		kind = KindGetX
		if st == Shared || st == Owned {
			kind = KindUpgrade
		}
	}
	s.issueTime[key] = issueInfo{at: s.net.Cycle(), write: !isRead}
	s.outstanding[cpu]++
	s.send(protoMsg{kind: kind, addr: addr, cpu: cpu}, s.cpuNodes[cpu], s.bankOf(addr))
}

// Run advances the co-simulation for the given number of cycles and
// returns the statistics. The underlying network result (for power) is
// available via Network().
func (s *ClosedSystem) Run(cycles int64) ClosedStats {
	for i := int64(0); i < cycles; i++ {
		now := s.net.Cycle()
		if acts := s.scheduled[now]; acts != nil {
			delete(s.scheduled, now)
			for _, fn := range acts {
				fn()
			}
		}
		for cpu := range s.cpuNodes {
			s.issue(cpu)
		}
		s.net.Step()
	}
	return s.stats
}

// Network exposes the underlying network for counter/power inspection.
func (s *ClosedSystem) Network() *noc.Network { return s.net }

// Stats returns the accumulated statistics so far.
func (s *ClosedSystem) Stats() *ClosedStats { return &s.stats }

// Packet sizes of the coherence messages, in flits.
const (
	ControlFlits = 1
	DataFlits    = 4
)

package cmp

import (
	"fmt"
	"math/rand"

	"mira/internal/noc"
	"mira/internal/topology"
	"mira/internal/traffic"
)

// MsgKind classifies coherence messages for the Figure 2 packet-type
// distribution.
type MsgKind uint8

// Message kinds. GetS/GetX/Upgrade/Inv/Fwd/Ack are single-flit control
// packets; Data and WriteBack carry a cache line.
const (
	KindGetS MsgKind = iota
	KindGetX
	KindUpgrade
	KindInv
	KindFwd
	KindAck
	KindData
	KindWriteBack
	NumKinds
)

var kindNames = [...]string{"GetS", "GetX", "Upgrade", "Inv", "Fwd", "Ack", "Data", "WriteBack"}

func (k MsgKind) String() string { return kindNames[k] }

// IsData reports whether the message carries a full cache line.
func (k MsgKind) IsData() bool { return k == KindData || k == KindWriteBack }

// Params configures a CMP trace generation run.
type Params struct {
	Workload Workload
	// Topo supplies the CPU and cache-bank node placement (Figure 10
	// layouts); it must have 8 CPUs and 28 caches.
	Topo *topology.Topology
	Seed int64
	// ReqNetLat approximates the network traversal a request sees
	// before reaching its home bank (the trace is generated open-loop,
	// exactly like the paper's Simics-then-NoC methodology). BankLat
	// and MemLat are the L2 bank and DRAM access times of Table 4.
	ReqNetLat int64
	BankLat   int64
	MemLat    int64
	// MaxOutstanding bounds in-flight misses per CPU (Table 4: 16).
	MaxOutstanding int
	// Protocol selects MESI (the paper's protocol, the zero value) or
	// MOESI.
	Protocol Protocol
}

// DefaultParams returns the Table 4 configuration for a workload.
func DefaultParams(w Workload, topo *topology.Topology, seed int64) Params {
	return Params{
		Workload: w, Topo: topo, Seed: seed,
		ReqNetLat: 20, BankLat: 4, MemLat: 400, MaxOutstanding: 16,
	}
}

// Stats summarizes one generation run.
type Stats struct {
	Accesses, L1Hits, L1Misses int64
	KindCounts                 [NumKinds]int64
	WordCounts                 [traffic.NumPatterns]int64
	ShortFlits, TotalFlits     int64
}

// ShortFlitPct returns the percentage of generated flits that need only
// the top layer (Figure 13 (a)).
func (s *Stats) ShortFlitPct() float64 {
	if s.TotalFlits == 0 {
		return 0
	}
	return 100 * float64(s.ShortFlits) / float64(s.TotalFlits)
}

// ControlPacketFrac returns the fraction of packets that are control
// (address/coherence) packets — the Figure 2 quantity.
func (s *Stats) ControlPacketFrac() float64 {
	var ctrl, total int64
	for k := MsgKind(0); k < NumKinds; k++ {
		total += s.KindCounts[k]
		if !k.IsData() {
			ctrl += s.KindCounts[k]
		}
	}
	if total == 0 {
		return 0
	}
	return float64(ctrl) / float64(total)
}

// WordPatternShares returns Figure 1's per-pattern word fractions.
func (s *Stats) WordPatternShares() map[traffic.WordPattern]float64 {
	var total int64
	for _, c := range s.WordCounts {
		total += c
	}
	out := make(map[traffic.WordPattern]float64)
	if total == 0 {
		return out
	}
	for p := traffic.WordPattern(0); p < traffic.NumPatterns; p++ {
		out[p] = float64(s.WordCounts[p]) / float64(total)
	}
	return out
}

// System simulates the NUCA memory hierarchy of §4.1.2 — the L1s, the
// home-bank directories and the CPUs' address streams, all drawing from
// one rng seeded by Params.Seed — and records the coherence traffic it
// generates.
type System struct {
	p           Params
	rng         *rand.Rand
	l1s         []*L1
	dirs        map[topology.NodeID]*Directory
	cpuNodes    []topology.NodeID
	bankNodes   []topology.NodeID
	seqPtr      []uint32 // per-CPU sequential stream position
	recent      []reuseWindow
	outstanding [][]int64 // per-CPU completion times
	trace       *traffic.Trace
	stats       Stats
}

// NewSystem validates the parameters and builds a system with empty
// caches and directories.
func NewSystem(p Params) (*System, error) {
	cpus, banks := p.Topo.CPUs(), p.Topo.Caches()
	if len(cpus) == 0 || len(banks) == 0 {
		return nil, fmt.Errorf("cmp: topology lacks CPU/cache layout (%d cpus, %d banks)", len(cpus), len(banks))
	}
	if len(cpus) > 16 {
		return nil, fmt.Errorf("cmp: directory sharer mask supports <= 16 CPUs, have %d", len(cpus))
	}
	if err := p.Workload.Patterns.Validate(); err != nil {
		return nil, err
	}
	if p.MaxOutstanding < 1 {
		return nil, fmt.Errorf("cmp: MaxOutstanding = %d", p.MaxOutstanding)
	}
	s := &System{
		p:           p,
		rng:         rand.New(rand.NewSource(p.Seed)),
		cpuNodes:    cpus,
		bankNodes:   banks,
		dirs:        make(map[topology.NodeID]*Directory, len(banks)),
		seqPtr:      make([]uint32, len(cpus)),
		recent:      make([]reuseWindow, len(cpus)),
		outstanding: make([][]int64, len(cpus)),
		trace:       &traffic.Trace{Name: p.Workload.Name},
	}
	for range cpus {
		s.l1s = append(s.l1s, &L1{})
	}
	for _, b := range banks {
		s.dirs[b] = NewDirectory()
	}
	return s, nil
}

// bankOf maps a line address to its home bank node: SNUCA places sets
// statically by the low-order bits of the address (§4.1.2).
func (s *System) bankOf(addr uint32) topology.NodeID {
	return s.bankNodes[int(addr)%len(s.bankNodes)]
}

// Address-space layout: each CPU has a private region; a common shared
// region drives coherence traffic.
const sharedBase uint32 = 0xE000000

func privateBase(cpu int) uint32 { return uint32(cpu+1) << 20 }

// genAddr draws the next line address for a CPU: temporal re-reference
// of a recent line, a shared-region access, a sequential step, or a
// random touch of the private working set.
func (s *System) genAddr(cpu int) uint32 {
	w := &s.p.Workload
	if u := s.rng.Float64(); u < w.ReuseFrac {
		if addr, ok := s.recent[cpu].sample(s.rng); ok {
			return addr
		}
	}
	var addr uint32
	u := s.rng.Float64()
	switch {
	case u < w.SharedFrac:
		addr = sharedBase + uint32(s.rng.Intn(w.SharedLines))
	case u < w.SharedFrac+w.SeqFrac:
		s.seqPtr[cpu] = (s.seqPtr[cpu] + 1) % uint32(w.WorkingSetLines)
		addr = privateBase(cpu) + s.seqPtr[cpu]
	default:
		addr = privateBase(cpu) + uint32(s.rng.Intn(w.WorkingSetLines))
	}
	s.recent[cpu].push(addr)
	return addr
}

// l2Latency draws a home-bank access time: a bank hit, or an L2 miss
// that goes on to DRAM.
func (s *System) l2Latency() int64 {
	lat := s.p.BankLat
	if s.rng.Float64() < s.p.Workload.L2MissFrac {
		lat += s.p.MemLat
	}
	return lat
}

// emit records one message, of len(layers) flits, in the trace.
func (s *System) emit(cycle int64, kind MsgKind, src, dst topology.NodeID, layers []uint8) {
	if src == dst {
		return // bank-local access, no network message
	}
	class := noc.Control
	if kind.IsData() {
		class = noc.Data
	}
	s.trace.Events = append(s.trace.Events, traffic.Event{
		Cycle: cycle, Src: src, Dst: dst, Size: len(layers), Class: class, Layers: layers,
	})
	s.stats.KindCounts[kind]++
	for _, l := range layers {
		s.stats.TotalFlits++
		if l == 1 {
			s.stats.ShortFlits++
		}
	}
}

// emitData draws a cache line's words, counting them by pattern, and
// records the message that carries it.
func (s *System) emitData(cycle int64, kind MsgKind, src, dst topology.NodeID) {
	l := dataPayload(s.p.Workload.Patterns, s.rng, &s.stats.WordCounts)
	s.emit(cycle, kind, src, dst, l.layers())
}

func (s *System) emitCtrl(cycle int64, kind MsgKind, src, dst topology.NodeID) {
	s.emit(cycle, kind, src, dst, controlLayers)
}

// read handles an L1 load miss: GetS to the home bank, then either a
// bank response or a cache-to-cache forward from the modified owner.
func (s *System) read(cycle int64, cpu int, addr uint32) int64 {
	cpuNode := s.cpuNodes[cpu]
	bank := s.bankOf(addr)
	s.emitCtrl(cycle, KindGetS, cpuNode, bank)
	t := cycle + s.p.ReqNetLat
	e := s.dirs[bank].Entry(addr)

	var respAt int64
	if e.owner >= 0 && int(e.owner) != cpu {
		// Dirty copy elsewhere: forward; the owner supplies the data to
		// the requester. Under MESI it downgrades to Shared and writes
		// back immediately; under MOESI it keeps ownership in the
		// Owned state and the write-back waits for its eviction.
		ownerNode := s.cpuNodes[e.owner]
		s.emitCtrl(t, KindFwd, bank, ownerNode)
		if s.p.Protocol == MOESI {
			s.l1s[e.owner].SetState(addr, Owned)
			e.addSharer(int(e.owner))
		} else {
			s.l1s[e.owner].SetState(addr, Shared)
			s.emitData(t+s.p.ReqNetLat, KindWriteBack, ownerNode, bank)
			e.addSharer(int(e.owner))
			e.owner = -1
		}
		s.emitData(t+s.p.ReqNetLat, KindData, ownerNode, cpuNode)
		respAt = t + 2*s.p.ReqNetLat
	} else {
		lat := s.l2Latency()
		s.emitData(t+lat, KindData, bank, cpuNode)
		respAt = t + lat + s.p.ReqNetLat
	}

	state := Shared
	if e.sharers == 0 && e.owner < 0 {
		state = Exclusive
		e.owner = int8(cpu)
	}
	e.addSharer(cpu)
	s.fill(cycle, cpu, addr, state)
	return respAt
}

// write handles a store that is not an L1 M/E hit: an upgrade from S or
// O, or a full write miss.
func (s *System) write(cycle int64, cpu int, addr uint32, st LineState) int64 {
	cpuNode := s.cpuNodes[cpu]
	bank := s.bankOf(addr)
	e := s.dirs[bank].Entry(addr)
	t := cycle + s.p.ReqNetLat
	upgrade := st == Shared || st == Owned

	kind := KindGetX
	if upgrade {
		kind = KindUpgrade
	}
	s.emitCtrl(cycle, kind, cpuNode, bank)

	// Invalidate every other sharer; they ack to the requester. A MOESI
	// owner in O shares the line with clean copies, so this runs before
	// the owner is forwarded to, and skips it.
	for _, sh := range e.Sharers() {
		if sh == cpu || sh == int(e.owner) {
			continue
		}
		shNode := s.cpuNodes[sh]
		s.emitCtrl(t, KindInv, bank, shNode)
		s.l1s[sh].SetState(addr, Invalid)
		s.emitCtrl(t+s.p.ReqNetLat, KindAck, shNode, cpuNode)
	}
	var respAt int64
	switch {
	case e.owner >= 0 && int(e.owner) != cpu:
		// Dirty elsewhere: forward; ownership transfers cache-to-cache.
		ownerNode := s.cpuNodes[e.owner]
		s.emitCtrl(t, KindFwd, bank, ownerNode)
		s.l1s[e.owner].SetState(addr, Invalid)
		s.emitData(t+s.p.ReqNetLat, KindData, ownerNode, cpuNode)
		respAt = t + 2*s.p.ReqNetLat
	case upgrade:
		// Data already present, the bank grants ownership.
		s.emitCtrl(t+s.p.BankLat, KindAck, bank, cpuNode)
		respAt = t + s.p.BankLat + s.p.ReqNetLat
	default:
		lat := s.l2Latency()
		s.emitData(t+lat, KindData, bank, cpuNode)
		respAt = t + lat + s.p.ReqNetLat
	}

	e.clearAll()
	e.owner = int8(cpu)
	e.addSharer(cpu)
	if upgrade {
		s.l1s[cpu].SetState(addr, Modified)
	} else {
		s.fill(cycle, cpu, addr, Modified)
	}
	return respAt
}

// fill installs a line into the CPU's L1 and retires the victim, if
// any, from its directory entry. A clean victim leaves silently; a
// dirty one writes back over the network.
func (s *System) fill(cycle int64, cpu int, addr uint32, st LineState) {
	victim, vState := s.l1s[cpu].Fill(addr, st)
	if vState == Invalid {
		return
	}
	bank := s.bankOf(victim)
	ve := s.dirs[bank].Entry(victim)
	ve.clearSharer(cpu)
	if int(ve.owner) == cpu {
		ve.owner = -1
	}
	if vState.Dirty() {
		s.emitData(cycle, KindWriteBack, s.cpuNodes[cpu], bank)
	}
}

// step runs one cycle of every CPU: retire completed misses, then, below
// the MSHR limit, maybe issue one access. A load of a valid line and a
// store to an M or E line hit (the store leaves it Modified); anything
// else is a miss the protocol serves.
func (s *System) step(cycle int64) {
	for cpu, l1 := range s.l1s {
		out := s.outstanding[cpu][:0]
		for _, t := range s.outstanding[cpu] {
			if t > cycle {
				out = append(out, t)
			}
		}
		s.outstanding[cpu] = out
		if len(out) >= s.p.MaxOutstanding || s.rng.Float64() >= s.p.Workload.Intensity {
			continue
		}
		addr := s.genAddr(cpu)
		s.stats.Accesses++
		isRead := s.rng.Float64() < s.p.Workload.ReadFrac
		st := l1.Lookup(addr)
		switch {
		case isRead && st != Invalid:
			s.stats.L1Hits++
		case !isRead && (st == Modified || st == Exclusive):
			s.stats.L1Hits++
			l1.SetState(addr, Modified)
		case isRead:
			s.stats.L1Misses++
			s.outstanding[cpu] = append(s.outstanding[cpu], s.read(cycle, cpu, addr))
		default:
			s.stats.L1Misses++
			s.outstanding[cpu] = append(s.outstanding[cpu], s.write(cycle, cpu, addr, st))
		}
	}
}

// Run executes the CPUs for the given number of cycles and returns the
// recorded trace (time-sorted) plus statistics.
func (s *System) Run(cycles int64) (*traffic.Trace, Stats) {
	for cycle := int64(0); cycle < cycles; cycle++ {
		s.step(cycle)
	}
	s.trace.Sort()
	return s.trace, s.stats
}

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
	Upgrades                   int64
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

// hierarchy is the memory system both System and ClosedSystem model:
// the L1s, the home-bank directories and the CPUs' address streams,
// all drawing from one rng seeded by Params.Seed.
type hierarchy struct {
	p         Params
	rng       *rand.Rand
	l1s       []*L1
	dirs      map[topology.NodeID]*Directory
	cpuNodes  []topology.NodeID
	bankNodes []topology.NodeID
	seqPtr    []uint32 // per-CPU sequential stream position
	recent    []reuseWindow
	words     [traffic.NumPatterns]int64 // data words by Figure 1 pattern
}

// newHierarchy validates the parameters and builds empty caches and
// directories.
func newHierarchy(p Params) (hierarchy, error) {
	cpus, banks := p.Topo.CPUs(), p.Topo.Caches()
	if len(cpus) == 0 || len(banks) == 0 {
		return hierarchy{}, fmt.Errorf("cmp: topology lacks CPU/cache layout (%d cpus, %d banks)", len(cpus), len(banks))
	}
	if len(cpus) > 16 {
		return hierarchy{}, fmt.Errorf("cmp: directory sharer mask supports <= 16 CPUs, have %d", len(cpus))
	}
	if err := p.Workload.Patterns.Validate(); err != nil {
		return hierarchy{}, err
	}
	if p.MaxOutstanding < 1 {
		return hierarchy{}, fmt.Errorf("cmp: MaxOutstanding = %d", p.MaxOutstanding)
	}
	h := hierarchy{
		p:         p,
		rng:       rand.New(rand.NewSource(p.Seed)),
		cpuNodes:  cpus,
		bankNodes: banks,
		dirs:      make(map[topology.NodeID]*Directory, len(banks)),
		seqPtr:    make([]uint32, len(cpus)),
		recent:    make([]reuseWindow, len(cpus)),
	}
	for range cpus {
		h.l1s = append(h.l1s, &L1{})
	}
	for _, b := range banks {
		h.dirs[b] = NewDirectory()
	}
	return h, nil
}

// bankOf maps a line address to its home bank node: SNUCA places sets
// statically by the low-order bits of the address (§4.1.2).
func (h *hierarchy) bankOf(addr uint32) topology.NodeID {
	return h.bankNodes[int(addr)%len(h.bankNodes)]
}

// Address-space layout: each CPU has a private region; a common shared
// region drives coherence traffic.
const sharedBase uint32 = 0xE000000

func privateBase(cpu int) uint32 { return uint32(cpu+1) << 20 }

// access draws whether the CPU issues a memory access this cycle and,
// if it does, the line address.
func (h *hierarchy) access(cpu int) (addr uint32, ok bool) {
	if h.rng.Float64() >= h.p.Workload.Intensity {
		return 0, false
	}
	return h.genAddr(cpu), true
}

// genAddr draws the next line address for a CPU: temporal re-reference
// of a recent line, a shared-region access, a sequential step, or a
// random touch of the private working set.
func (h *hierarchy) genAddr(cpu int) uint32 {
	w := &h.p.Workload
	if u := h.rng.Float64(); u < w.ReuseFrac {
		if addr, ok := h.recent[cpu].sample(h.rng); ok {
			return addr
		}
	}
	var addr uint32
	u := h.rng.Float64()
	switch {
	case u < w.SharedFrac:
		addr = sharedBase + uint32(h.rng.Intn(w.SharedLines))
	case u < w.SharedFrac+w.SeqFrac:
		h.seqPtr[cpu] = (h.seqPtr[cpu] + 1) % uint32(w.WorkingSetLines)
		addr = privateBase(cpu) + h.seqPtr[cpu]
	default:
		addr = privateBase(cpu) + uint32(h.rng.Intn(w.WorkingSetLines))
	}
	h.recent[cpu].push(addr)
	return addr
}

// lookup draws whether the access is a load and looks the line up in the
// CPU's L1. A load of a valid line and a store to an M or E line hit
// (the store leaves it Modified); anything else is a miss the protocol
// must serve, from line state st.
func (h *hierarchy) lookup(cpu int, addr uint32) (isRead, hit bool, st LineState) {
	isRead = h.rng.Float64() < h.p.Workload.ReadFrac
	st = h.l1s[cpu].Lookup(addr)
	switch {
	case isRead && st != Invalid:
		return isRead, true, st
	case !isRead && (st == Modified || st == Exclusive):
		h.l1s[cpu].SetState(addr, Modified)
		return isRead, true, st
	}
	return isRead, false, st
}

// l2Latency draws a home-bank access time: a bank hit, or an L2 miss
// that goes on to DRAM.
func (h *hierarchy) l2Latency() int64 {
	lat := h.p.BankLat
	if h.rng.Float64() < h.p.Workload.L2MissFrac {
		lat += h.p.MemLat
	}
	return lat
}

// dataPayload draws a cache line's words, counting them by pattern.
func (h *hierarchy) dataPayload() line {
	return dataPayload(h.p.Workload.Patterns, h.rng, &h.words)
}

// fill installs a line into the CPU's L1 and retires the victim, if
// any, from its directory entry (clean victims leave silently). It
// returns a dirty victim's address and home bank, which the caller
// writes back over the network.
func (h *hierarchy) fill(cpu int, addr uint32, st LineState) (victim uint32, bank topology.NodeID, dirty bool) {
	victim, vState := h.l1s[cpu].Fill(addr, st)
	if vState == Invalid {
		return 0, 0, false
	}
	bank = h.bankOf(victim)
	ve := h.dirs[bank].Entry(victim)
	ve.clearSharer(cpu)
	if int(ve.owner) == cpu {
		ve.owner = -1
	}
	return victim, bank, vState.Dirty()
}

// System simulates the NUCA memory hierarchy of §4.1.2 and records the
// coherence traffic it generates.
type System struct {
	hierarchy
	trace       *traffic.Trace
	stats       Stats
	outstanding [][]int64 // per-CPU completion times
}

// NewSystem validates the parameters and builds a system.
func NewSystem(p Params) (*System, error) {
	h, err := newHierarchy(p)
	if err != nil {
		return nil, err
	}
	return &System{
		hierarchy:   h,
		trace:       &traffic.Trace{Name: p.Workload.Name},
		outstanding: make([][]int64, len(h.cpuNodes)),
	}, nil
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

func (s *System) emitData(cycle int64, kind MsgKind, src, dst topology.NodeID) {
	l := s.dataPayload()
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

// write handles a store that is not an L1 M/E hit: an upgrade from S, or
// a full write miss.
func (s *System) write(cycle int64, cpu int, addr uint32, st LineState) int64 {
	cpuNode := s.cpuNodes[cpu]
	bank := s.bankOf(addr)
	e := s.dirs[bank].Entry(addr)
	t := cycle + s.p.ReqNetLat

	kind := KindGetX
	if st == Shared || st == Owned {
		kind = KindUpgrade
		s.stats.Upgrades++
	}
	s.emitCtrl(cycle, kind, cpuNode, bank)

	var respAt int64
	if e.owner >= 0 && int(e.owner) != cpu {
		// Dirty elsewhere: forward; ownership transfers cache-to-cache.
		ownerNode := s.cpuNodes[e.owner]
		s.emitCtrl(t, KindFwd, bank, ownerNode)
		s.l1s[e.owner].SetState(addr, Invalid)
		s.emitData(t+s.p.ReqNetLat, KindData, ownerNode, cpuNode)
		respAt = t + 2*s.p.ReqNetLat
	} else {
		// Invalidate all other sharers; they ack to the requester.
		for _, sh := range e.Sharers() {
			if sh == cpu {
				continue
			}
			shNode := s.cpuNodes[sh]
			s.emitCtrl(t, KindInv, bank, shNode)
			s.l1s[sh].SetState(addr, Invalid)
			s.emitCtrl(t+s.p.ReqNetLat, KindAck, shNode, cpuNode)
		}
		if st == Shared || st == Owned {
			// Upgrade: data already present, the bank grants ownership.
			s.emitCtrl(t+s.p.BankLat, KindAck, bank, cpuNode)
			respAt = t + s.p.BankLat + s.p.ReqNetLat
		} else {
			lat := s.l2Latency()
			s.emitData(t+lat, KindData, bank, cpuNode)
			respAt = t + lat + s.p.ReqNetLat
		}
	}

	e.clearAll()
	e.owner = int8(cpu)
	e.addSharer(cpu)
	if st == Shared || st == Owned {
		s.l1s[cpu].SetState(addr, Modified)
	} else {
		s.fill(cycle, cpu, addr, Modified)
	}
	return respAt
}

// fill installs a line into the L1; a Modified victim writes back over
// the network.
func (s *System) fill(cycle int64, cpu int, addr uint32, st LineState) {
	if _, bank, dirty := s.hierarchy.fill(cpu, addr, st); dirty {
		s.emitData(cycle, KindWriteBack, s.cpuNodes[cpu], bank)
	}
}

// Run executes the CPUs for the given number of cycles and returns the
// recorded trace (time-sorted) plus statistics.
func (s *System) Run(cycles int64) (*traffic.Trace, Stats) {
	for cycle := int64(0); cycle < cycles; cycle++ {
		for cpu := range s.l1s {
			// Retire completed misses.
			out := s.outstanding[cpu][:0]
			for _, t := range s.outstanding[cpu] {
				if t > cycle {
					out = append(out, t)
				}
			}
			s.outstanding[cpu] = out
			if len(out) >= s.p.MaxOutstanding {
				continue
			}
			addr, ok := s.access(cpu)
			if !ok {
				continue
			}
			s.stats.Accesses++
			isRead, hit, st := s.lookup(cpu, addr)
			switch {
			case hit:
				s.stats.L1Hits++
			case isRead:
				s.stats.L1Misses++
				s.outstanding[cpu] = append(s.outstanding[cpu], s.read(cycle, cpu, addr))
			default:
				s.stats.L1Misses++
				s.outstanding[cpu] = append(s.outstanding[cpu], s.write(cycle, cpu, addr, st))
			}
		}
	}
	s.trace.Sort()
	s.stats.WordCounts = s.words
	return s.trace, s.stats
}

// GenerateTrace is the one-call convenience used by experiments and the
// tracegen example.
func GenerateTrace(w Workload, topo *topology.Topology, cycles, seed int64) (*traffic.Trace, Stats, error) {
	sys, err := NewSystem(DefaultParams(w, topo, seed))
	if err != nil {
		return nil, Stats{}, err
	}
	tr, st := sys.Run(cycles)
	return tr, st, nil
}

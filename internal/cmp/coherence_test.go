package cmp

import (
	"fmt"
	"testing"
)

// lineError checks one line against the protocol's invariants: one M/E
// copy alone, or any number of S copies beside at most one O copy (O
// only under MOESI); the directory's sharers are exactly the L1s that
// hold the line; and its owner is the M/E/O holder, -1 if there is none.
func (s *System) lineError(addr uint32) error {
	var holders uint16
	states := make([]LineState, len(s.l1s))
	owner, excl, owned := -1, 0, 0
	for c, l1 := range s.l1s {
		for _, ln := range l1.set(addr) { // not Lookup: it moves the LRU stamp
			if ln.state != Invalid && ln.addr == addr {
				states[c] = ln.state
			}
		}
		switch states[c] {
		case Invalid:
			continue
		case Modified, Exclusive:
			excl, owner = excl+1, c
		case Owned:
			owned, owner = owned+1, c
		}
		holders |= 1 << c
	}
	e := dirEntry{owner: -1}
	if d := s.dirs[s.bankOf(addr)].lines[addr]; d != nil {
		e = *d
	}
	var bad string
	switch {
	case excl > 1 || excl == 1 && holders&(holders-1) != 0:
		bad = "an M/E copy is not alone"
	case owned > 1 || owned == 1 && s.p.Protocol != MOESI:
		bad = "two O copies, or one under MESI"
	case e.sharers != holders:
		bad = "the directory's sharers are not the L1 holders"
	case int(e.owner) != owner:
		bad = "the directory's owner is not the M/E/O holder"
	default:
		return nil
	}
	return fmt.Errorf("line %#x: %s: L1 states %v, directory sharers %016b owner %d", addr, bad, states, e.sharers, e.owner)
}

// checkCoherence steps s for cycles cycles and, after each, checks every
// line whose tag entry changed in some L1, before or after the change.
// An access ticks its L1's clock and rewrites an entry of its set (a hit
// moves the line's LRU stamp, a miss fills it), and everything else it
// changes — other L1s' copies, the victim, the directory — belongs to a
// line in the same set index, whose entry changes with it.
func checkCoherence(t *testing.T, s *System, cycles int64) {
	t.Helper()
	prev := make([]L1, len(s.l1s))
	var addrs []uint32
	for cycle := int64(0); cycle < cycles; cycle++ {
		s.step(cycle)
		for c, l1 := range s.l1s {
			if l1.clock == prev[c].clock {
				continue
			}
			prev[c].clock = l1.clock
			for set := range l1.sets {
				if l1.sets[set] == prev[c].sets[set] {
					continue
				}
				addrs = addrs[:0]
				for i, l1 := range s.l1s {
					for w, ln := range l1.sets[set] {
						if old := prev[i].sets[set][w]; ln != old {
							addrs = append(addrs, ln.addr, old.addr)
						}
					}
					prev[i].sets[set] = l1.sets[set]
				}
				for _, addr := range addrs {
					if err := s.lineError(addr); err != nil {
						t.Fatalf("%s/%v seed %d, cycle %d: %v", s.p.Workload.Name, s.p.Protocol, s.p.Seed, cycle, err)
					}
				}
			}
		}
	}
}

// runCoherence runs a workload for cycles cycles with the invariants
// checked after every one.
func runCoherence(t *testing.T, w Workload, proto Protocol, seed, cycles int64) {
	p := DefaultParams(w, nucaTopo(t), seed)
	p.Protocol = proto
	s, err := NewSystem(p)
	if err != nil {
		t.Fatal(err)
	}
	checkCoherence(t, s, cycles)
}

func TestCoherence(t *testing.T) {
	for _, w := range Workloads {
		for _, proto := range []Protocol{MESI, MOESI} {
			t.Run(w.Name+"/"+proto.String(), func(t *testing.T) { runCoherence(t, w, proto, 3, 20000) })
		}
	}
}

// FuzzCoherence draws a workload, protocol, seed and an intensity scale
// of 1-4.5x.
func FuzzCoherence(f *testing.F) {
	f.Add(uint8(0), uint8(MOESI), int64(1), uint8(0))
	f.Add(uint8(4), uint8(MOESI), int64(2), uint8(7))
	f.Add(uint8(5), uint8(MESI), int64(3), uint8(3))
	f.Add(uint8(10), uint8(MOESI), int64(4), uint8(5))
	f.Fuzz(func(t *testing.T, wi, proto uint8, seed int64, scale uint8) {
		w := Workloads[int(wi)%len(Workloads)]
		w.Intensity *= 1 + float64(scale%8)/2
		runCoherence(t, w, Protocol(proto%2), seed, 2000)
	})
}

package noc

import (
	"context"
	"testing"

	"mira/internal/topology"
)

// recordingProbe captures every emitted event in order. The network
// reuses a Packet once its tail has ejected (Enqueue), so each event
// keeps a copy of the packet as it was at event time, not the live
// pointer.
type recordingProbe struct {
	events []ProbeEvent
}

func (p *recordingProbe) ProbeEvent(ev ProbeEvent) {
	pkt := *ev.Flit.Pkt
	ev.Flit.Pkt = &pkt
	p.events = append(p.events, ev)
}

// runProbed runs a short bernoulli simulation with a recording probe
// attached and returns the event stream plus the final counters.
func runProbed(t *testing.T, mode StepMode) ([]ProbeEvent, Counters, Result) {
	return runProbedCfg(t, mode, nil)
}

func runProbedCfg(t *testing.T, mode StepMode, mutate func(*Config)) ([]ProbeEvent, Counters, Result) {
	t.Helper()
	cfg := cfg2D(2)
	cfg.Mode = mode
	if mutate != nil {
		mutate(&cfg)
	}
	net := NewNetwork(cfg)
	p := &recordingProbe{}
	net.SetProbe(p)
	s := NewSim(net, bernoulli(cfg.Topo, 0.1, 4, Data))
	s.Params = SimParams{Warmup: 0, Measure: 400, DrainMax: 2000}
	res := s.Run(context.Background())
	return p.events, net.TotalCounters(), res
}

// TestProbeEventStreamMatchesCounters cross-checks the probe stream
// against the router activity counters: every counted pipeline event of
// an observable kind must have been emitted exactly once.
func TestProbeEventStreamMatchesCounters(t *testing.T) {
	events, c, res := runProbed(t, StepActivity)
	if res.Ejected == 0 {
		t.Fatal("no traffic simulated")
	}
	var n [NumProbeKinds]int64
	for _, ev := range events {
		n[ev.Kind]++
	}
	if n[ProbeRoute] != c.RCOps {
		t.Errorf("route events = %d, RCOps = %d", n[ProbeRoute], c.RCOps)
	}
	if n[ProbeVCAlloc] != c.VAGrants {
		t.Errorf("vcalloc events = %d, VAGrants = %d", n[ProbeVCAlloc], c.VAGrants)
	}
	if n[ProbeSAGrant] != c.SAGrants {
		t.Errorf("sagrant events = %d, SAGrants = %d", n[ProbeSAGrant], c.SAGrants)
	}
	if n[ProbeLink] != c.LinkFlits {
		t.Errorf("link events = %d, LinkFlits = %d", n[ProbeLink], c.LinkFlits)
	}
	// Every injected flit is eventually ejected in a fully drained run.
	if n[ProbeInject] != n[ProbeEject] {
		t.Errorf("inject events = %d, eject events = %d", n[ProbeInject], n[ProbeEject])
	}
	if n[ProbeInject] == 0 {
		t.Error("no inject events emitted")
	}
}

// TestProbeEventStreamDeterministicAcrossModes verifies the event
// stream is the same sequence under both step modes — the property that
// makes traces comparable across them — and that it is the right one:
// every event of every flit is one the oracle reports for the same
// cycle, router, direction and VC.
func TestProbeEventStreamDeterministicAcrossModes(t *testing.T) {
	act, _, _ := runProbed(t, StepActivity)
	chk, _, _ := runProbed(t, StepChecked)
	if len(act) == 0 || len(act) != len(chk) {
		t.Fatalf("activity emitted %d events, checked %d", len(act), len(chk))
	}
	for i := range act {
		a, c := act[i], chk[i]
		// The two runs' flits point at different Packet objects.
		if a.Flit.Pkt.ID != c.Flit.Pkt.ID {
			t.Fatalf("event %d differs: activity packet %d vs checked packet %d", i, a.Flit.Pkt.ID, c.Flit.Pkt.ID)
		}
		a.Flit.Pkt, c.Flit.Pkt = nil, nil
		if a != c {
			t.Fatalf("event %d differs: activity %+v vs checked %+v", i, a, c)
		}
	}
	for _, stlt := range []int{2, 1} { // the Fig. 8 (a) pipeline, then (d) with look-ahead and speculation
		cfg := cfg2D(stlt)
		cfg.LookaheadRC, cfg.SpecSA = stlt == 1, stlt == 1
		againstOracle(t, cfg, bernoulli(cfg.Topo, 0.1, 4, Data), 400, oracleOpts{probed: true})
	}
}

// TestProbePerFlitOrdering checks the pipeline invariant per flit:
// inject precedes every router event, and eject is last, with
// non-decreasing cycles along the way. The look-ahead variant is the
// regression for inject-event ordering: look-ahead routing computes the
// route (and emits its route event) as the flit enters the source
// buffer, which must still happen after the inject emission.
func TestProbePerFlitOrdering(t *testing.T) {
	for _, variant := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"baseline", nil},
		{"lookahead", func(c *Config) { c.LookaheadRC = true }},
		{"lookahead_specsa", func(c *Config) { c.LookaheadRC = true; c.SpecSA = true }},
	} {
		t.Run(variant.name, func(t *testing.T) {
			checkPerFlitOrdering(t, variant.mutate)
		})
	}
}

func checkPerFlitOrdering(t *testing.T, mutate func(*Config)) {
	events, _, _ := runProbedCfg(t, StepActivity, mutate)
	type key struct {
		pkt int64
		seq int
	}
	last := map[key]ProbeEvent{}
	for _, ev := range events {
		k := key{ev.Flit.Pkt.ID, int(ev.Flit.Seq)}
		prev, seen := last[k]
		if !seen {
			if ev.Kind != ProbeInject {
				t.Fatalf("first event for flit %v is %v, want inject", k, ev.Kind)
			}
		} else {
			if prev.Cycle > ev.Cycle {
				t.Fatalf("flit %v went back in time: %v@%d after %v@%d",
					k, ev.Kind, ev.Cycle, prev.Kind, prev.Cycle)
			}
			if prev.Kind == ProbeEject {
				t.Fatalf("flit %v has events after eject", k)
			}
		}
		last[k] = ev
	}
	for k, ev := range last {
		if ev.Kind != ProbeEject {
			t.Errorf("flit %v never ejected (last event %v)", k, ev.Kind)
		}
	}
}

// TestVCOccupanciesMatchOccupancy checks the sampler accessors agree
// with the router's own total.
func TestVCOccupanciesMatchOccupancy(t *testing.T) {
	cfg := cfg2D(2)
	net := NewNetwork(cfg)
	s := NewSim(net, bernoulli(cfg.Topo, 0.2, 4, Data))
	s.Params = SimParams{Warmup: 0, Measure: 200, DrainMax: 0}
	s.Run(context.Background())
	for i := 0; i < cfg.Topo.NumNodes(); i++ {
		r := net.Router(topology.NodeID(i))
		occ := r.VCOccupancies(nil)
		if len(occ) != r.NumInVCs() {
			t.Fatalf("router %d: %d occupancies for %d VCs", i, len(occ), r.NumInVCs())
		}
		sum := 0
		for _, o := range occ {
			sum += o
		}
		if sum != r.Occupancy() {
			t.Errorf("router %d: per-VC sum %d != occupancy %d", i, sum, r.Occupancy())
		}
	}
}

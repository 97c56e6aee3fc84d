package noc

import (
	"context"
	"testing"

	"mira/internal/topology"
)

// runProbed runs a short bernoulli simulation with a recording probe
// attached and returns the event stream plus the final counters.
func runProbed(t *testing.T, mode StepMode) (probeTap, Counters, Result) {
	return runProbedCfg(t, mode, nil)
}

func runProbedCfg(t *testing.T, mode StepMode, mutate func(*Config)) (probeTap, Counters, Result) {
	t.Helper()
	cfg := cfg2D(2)
	cfg.Mode = mode
	if mutate != nil {
		mutate(&cfg)
	}
	net := NewNetwork(cfg)
	var p probeTap
	net.SetProbe(&p)
	s := NewSim(net, bernoulli(cfg.Topo, 0.1, 4, Data))
	s.Params = SimParams{Warmup: 0, Measure: 400, DrainMax: 2000}
	res := s.Run(context.Background())
	return p, net.TotalCounters(), res
}

// TestProbeEventStreamMatchesCounters cross-checks the probe stream
// against the router activity counters: every counted pipeline event of
// an observable kind must have been emitted exactly once, a link
// traversal as its switch grant onto a network port.
func TestProbeEventStreamMatchesCounters(t *testing.T) {
	events, c, res := runProbed(t, StepActivity)
	if res.Ejected == 0 {
		t.Fatal("no traffic simulated")
	}
	var n [NumProbeKinds]int64
	var links int64 // grants onto a network port: the link traversals
	for _, ev := range events {
		n[ev.kind]++
		if ev.kind == ProbeSAGrant && ev.dir != topology.Local {
			links++
		}
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
	if n[ProbeLink] != 0 || links != c.LinkFlits {
		t.Errorf("link events = %d (the network emits none), non-local sagrant events = %d, LinkFlits = %d",
			n[ProbeLink], links, c.LinkFlits)
	}
	// Every injected flit is eventually ejected in a fully drained run.
	if n[ProbeInject] != n[ProbeEject] {
		t.Errorf("inject events = %d, eject events = %d", n[ProbeInject], n[ProbeEject])
	}
	if n[ProbeInject] == 0 {
		t.Error("no inject events emitted")
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
	last := map[key]oEvent{}
	for _, ev := range events {
		k := key{ev.pkt, ev.seq}
		prev, seen := last[k]
		if !seen {
			if ev.kind != ProbeInject {
				t.Fatalf("first event for flit %v is %v, want inject", k, ev.kind)
			}
		} else {
			if prev.cycle > ev.cycle {
				t.Fatalf("flit %v went back in time: %v@%d after %v@%d",
					k, ev.kind, ev.cycle, prev.kind, prev.cycle)
			}
			if prev.kind == ProbeEject {
				t.Fatalf("flit %v has events after eject", k)
			}
		}
		last[k] = ev
	}
	for k, ev := range last {
		if ev.kind != ProbeEject {
			t.Errorf("flit %v never ejected (last event %v)", k, ev.kind)
		}
	}
}

// TestVCOccupanciesMatchOccupancy checks the sampler's per-VC accessor
// agrees with the router's own total.
func TestVCOccupanciesMatchOccupancy(t *testing.T) {
	cfg := cfg2D(2)
	net := NewNetwork(cfg)
	s := NewSim(net, bernoulli(cfg.Topo, 0.2, 4, Data))
	s.Params = SimParams{Warmup: 0, Measure: 200, DrainMax: 0}
	s.Run(context.Background())
	for i := 0; i < cfg.Topo.NumNodes(); i++ {
		r := net.Router(topology.NodeID(i))
		sum := 0
		for f := 0; f < r.NumInVCs(); f++ {
			sum += r.VCOccupancy(f/r.vcsPerPort, f%r.vcsPerPort)
		}
		if sum != r.Occupancy() {
			t.Errorf("router %d: per-VC sum %d != occupancy %d", i, sum, r.Occupancy())
		}
	}
}

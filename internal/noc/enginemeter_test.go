package noc

import "testing"

// ejection is one packet leaving the network, in callback order.
type ejection struct {
	id       int64
	ejected  int64
	injected int64
	hops     int
}

// runMetered drives cfg under Bernoulli traffic of 4-flit packets for
// the given cycles and a drain, an engine meter attached before the
// first step if metered, and returns the ejection stream, the final
// counters and the meter's snapshot.
func runMetered(t *testing.T, cfg Config, mode StepMode, rate float64, cycles int64, metered bool) ([]ejection, Counters, EngineSnapshot) {
	t.Helper()
	cfg.Mode = mode
	net := NewNetwork(cfg)
	t.Cleanup(net.ReleaseWorkers)
	var m *EngineMeter
	if metered {
		m = net.EnableEngineMeter()
	}
	var stream []ejection
	net.SetEjectHandler(func(p *Packet) {
		stream = append(stream, ejection{id: p.ID, ejected: p.EjectedAt, injected: p.InjectedAt, hops: p.Hops})
	})
	drive(t, net, rate, 4, cycles)
	for i := 0; i < 20000 && !net.Idle(); i++ {
		net.Step()
	}
	net.ReleaseWorkers()
	var snap EngineSnapshot
	if m != nil {
		snap = m.Snapshot()
	}
	return stream, net.TotalCounters(), snap
}

// TestEngineMeterPurity pins the out-of-band contract: a run with an
// engine meter attached must produce the exact ejection stream and
// counters of the unmetered run, at every shard count and in checked
// mode. The meter only reads clocks; nothing it does may steer
// simulation.
func TestEngineMeterPurity(t *testing.T) {
	for mode, counts := range map[StepMode][]int{StepActivity: {1, 2, 4}, StepChecked: {3}} {
		for _, shards := range counts {
			cfg := cfg2D(2)
			cfg.Seed = 42
			cfg.Shards = shards
			ref, refCnt, _ := runMetered(t, cfg, mode, 0.2, 800, false)
			got, gotCnt, _ := runMetered(t, cfg, mode, 0.2, 800, true)
			if len(ref) == 0 {
				t.Fatal("no traffic delivered; test is vacuous")
			}
			if len(got) != len(ref) {
				t.Fatalf("mode=%v shards=%d: metered ejection stream diverges: %d vs %d packets", mode, shards, len(got), len(ref))
			}
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("mode=%v shards=%d: ejection %d diverges: metered %+v, bare %+v", mode, shards, i, got[i], ref[i])
				}
			}
			if gotCnt != refCnt {
				t.Fatalf("mode=%v shards=%d: counters diverge:\nmetered %+v\nbare    %+v", mode, shards, gotCnt, refCnt)
			}
		}
	}
}

// TestEngineMeterSharded checks the sharded accounting: every shard
// logs busy time and one meter cycle per step, the drain phase is a
// prefix of (and so never exceeds) the busy time, boundary crossings
// are recorded for a mesh cut into shards, and the derived ratios are
// in range.
func TestEngineMeterSharded(t *testing.T) {
	cfg := cfg2D(2)
	cfg.Seed = 7
	cfg.Shards = 4
	_, _, snap := runMetered(t, cfg, StepActivity, 0.2, 800, true)
	if snap.Cycles == 0 || snap.StepNs <= 0 {
		t.Fatalf("no metered cycles: %+v", snap)
	}
	if len(snap.Shards) != 4 {
		t.Fatalf("want 4 shard stats, got %d", len(snap.Shards))
	}
	for _, s := range snap.Shards {
		if s.Cycles != snap.Cycles {
			t.Fatalf("shard %d cycles %d != total %d", s.Shard, s.Cycles, snap.Cycles)
		}
		if s.BusyNs <= 0 {
			t.Fatalf("shard %d logged no busy time", s.Shard)
		}
		if s.DrainNs < 0 || s.DrainNs > s.BusyNs {
			t.Fatalf("shard %d drain %dns outside busy %dns", s.Shard, s.DrainNs, s.BusyNs)
		}
		if s.Routers <= 0 {
			t.Fatalf("shard %d reports %d routers", s.Shard, s.Routers)
		}
	}
	if len(snap.Mailbox) == 0 {
		t.Fatal("no boundary-mailbox crossings recorded for a sharded mesh under load")
	}
	var flits int64
	for _, mb := range snap.Mailbox {
		if mb.Src == mb.Dst {
			t.Fatalf("self-crossing recorded: %+v", mb)
		}
		flits += mb.Flits
	}
	if flits == 0 {
		t.Fatal("crossing counters recorded no flits")
	}
	if r := snap.ImbalanceRatio(); r < 1 {
		t.Fatalf("imbalance ratio %v < 1", r)
	}
	if u := snap.Utilization(); u <= 0 || u > 1.5 {
		t.Fatalf("utilization %v out of range", u)
	}
	// With more shards than cores every barrier wait parks (pool.go).
	if cfg.Shards > shardCores() && snap.Parks < snap.Cycles {
		t.Fatalf("%d parks over %d park-only cycles, want at least one per cycle", snap.Parks, snap.Cycles)
	}
}

// TestEngineMeterSequential checks the single-shard path: it runs the
// same cycle function as a sharded run, so shard 0 reports the same
// drain/busy split, but there is no barrier to wait at and nothing ever
// crosses a boundary.
func TestEngineMeterSequential(t *testing.T) {
	cfg := cfg2D(2)
	cfg.Seed = 7
	_, _, snap := runMetered(t, cfg, StepActivity, 0.2, 400, true)
	if len(snap.Shards) != 1 {
		t.Fatalf("want 1 shard stat, got %d", len(snap.Shards))
	}
	s0 := snap.Shards[0]
	if s0.BusyNs <= 0 || s0.Cycles != snap.Cycles {
		t.Fatalf("sequential accounting off: %+v", snap)
	}
	if s0.DrainNs <= 0 || s0.DrainNs > s0.BusyNs {
		t.Fatalf("drain %dns not in (0, busy %dns]", s0.DrainNs, s0.BusyNs)
	}
	if s0.BusyNs > snap.StepNs {
		t.Fatalf("busy %dns exceeds the %dns spent in Step", s0.BusyNs, snap.StepNs)
	}
	if s0.BarrierNs != 0 {
		t.Fatalf("single shard waited %dns at a barrier it does not have", s0.BarrierNs)
	}
	if len(snap.Mailbox) != 0 {
		t.Fatalf("sequential run recorded crossings: %+v", snap.Mailbox)
	}
	if r := snap.ImbalanceRatio(); r != 1 {
		t.Fatalf("single-shard imbalance ratio %v != 1", r)
	}
	if snap.Parks != 0 {
		t.Fatalf("sequential run recorded %d barrier parks", snap.Parks)
	}
}

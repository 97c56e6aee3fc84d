package cmp

import (
	"testing"

	"mira/internal/noc"
	"mira/internal/routing"
	"mira/internal/topology"
)

func closedCfg(topo *topology.Topology) noc.Config {
	return noc.Config{
		Topo: topo, Alg: routing.DOR{}, VCs: 2, BufDepth: 8,
		STLTCycles: 2, Layers: 4, Policy: noc.ByClass, Seed: 1,
	}
}

func newClosed(t *testing.T, name string, seed int64) *ClosedSystem {
	t.Helper()
	topo := nucaTopo(t)
	w, ok := ByName(name)
	if !ok {
		t.Fatalf("workload %s missing", name)
	}
	p := DefaultParams(w, topo, seed)
	s, err := NewClosedSystem(p, closedCfg(topo))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestClosedSystemRuns(t *testing.T) {
	s := newClosed(t, "tpcw", 3)
	st := s.Run(20000)
	if st.Accesses == 0 || st.L1Misses == 0 {
		t.Fatalf("no activity: %+v", st)
	}
	if st.MissLatency.N() == 0 {
		t.Fatal("no misses completed")
	}
	if st.NetworkPackets == 0 {
		t.Fatal("no network traffic")
	}
	// Miss latency must at least cover two network traversals plus the
	// bank access at zero load (~2*11 + 4).
	if st.MissLatency.Mean() < 20 {
		t.Errorf("mean miss latency %.1f implausibly low", st.MissLatency.Mean())
	}
	// And must be finite/sane.
	if st.MissLatency.Mean() > 2000 {
		t.Errorf("mean miss latency %.1f implausibly high", st.MissLatency.Mean())
	}
}

func TestClosedSystemDrains(t *testing.T) {
	// After the run plus a quiescence period with no new issues, all
	// outstanding state should drain: in-flight map empty, network idle.
	s := newClosed(t, "barnes", 5)
	s.Run(10000)
	// Quiesce: stop issuing by zeroing intensity, keep stepping.
	s.p.Workload.Intensity = 0
	s.Run(5000)
	if len(s.inflight) != 0 {
		t.Errorf("%d packets still in flight after quiesce", len(s.inflight))
	}
	if !s.Network().Idle() {
		t.Errorf("network not idle after quiesce")
	}
	for cpu, o := range s.outstanding {
		if o != 0 {
			t.Errorf("cpu %d still has %d outstanding misses", cpu, o)
		}
	}
	if err := s.Network().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestClosedSystemRecycledPackets: the network reuses a Packet once its
// eject callback has returned, and the closed loop keys its protocol
// context by *noc.Packet. Every network packet must still reach
// onDeliver exactly once with its context present (onDeliver panics
// otherwise), from far fewer records than packets, on one shard and on
// three, with the per-cycle invariant check on.
func TestClosedSystemRecycledPackets(t *testing.T) {
	for _, shards := range []int{1, 3} {
		topo := nucaTopo(t)
		w, _ := ByName("barnes")
		cfg := closedCfg(topo)
		cfg.Shards, cfg.Mode = shards, noc.StepChecked
		s, err := NewClosedSystem(DefaultParams(w, topo, 5), cfg)
		if err != nil {
			t.Fatal(err)
		}
		var deliveries int64
		records := map[*noc.Packet]bool{}
		s.net.SetEjectHandler(func(p *noc.Packet) {
			deliveries++
			records[p] = true
			s.onDeliver(p)
		})
		s.Run(4000)
		s.p.Workload.Intensity = 0 // quiesce
		s.Run(3000)
		s.net.ReleaseWorkers()
		if len(s.inflight) != 0 || !s.net.Idle() {
			t.Fatalf("shards=%d: %d messages still in flight after quiesce", shards, len(s.inflight))
		}
		if deliveries == 0 || deliveries != s.stats.NetworkPackets {
			t.Errorf("shards=%d: %d deliveries for %d network packets", shards, deliveries, s.stats.NetworkPackets)
		}
		if int64(len(records))*2 > deliveries {
			t.Errorf("shards=%d: %d distinct records for %d packets: nothing was recycled", shards, len(records), deliveries)
		}
	}
}

func TestClosedSystemMessageMixRealistic(t *testing.T) {
	s := newClosed(t, "ocean", 7)
	st := s.Run(20000)
	if st.KindCounts[KindGetS] == 0 || st.KindCounts[KindData] == 0 {
		t.Fatalf("missing basic protocol traffic: %v", st.KindCounts)
	}
	// Shared working set must trigger coherence activity.
	if st.KindCounts[KindInv]+st.KindCounts[KindFwd] == 0 {
		t.Errorf("no invalidations or forwards despite shared data")
	}
	// Every data response corresponds to a completed or in-flight miss.
	if st.KindCounts[KindData] > st.L1Misses+10 {
		t.Errorf("more data responses (%d) than misses (%d)", st.KindCounts[KindData], st.L1Misses)
	}
}

func TestClosedSystemValidation(t *testing.T) {
	topo := nucaTopo(t)
	w, _ := ByName("tpcw")
	p := DefaultParams(w, topo, 1)
	cfg := closedCfg(topo)
	cfg.Policy = noc.AnyFree
	if _, err := NewClosedSystem(p, cfg); err == nil {
		t.Errorf("AnyFree policy should be rejected")
	}
	other := nucaTopo(t)
	if _, err := NewClosedSystem(p, closedCfg(other)); err == nil {
		t.Errorf("topology mismatch should be rejected")
	}
}

func TestClosedSystemDeterministic(t *testing.T) {
	a := newClosed(t, "sjbb", 11).Run(8000)
	b := newClosed(t, "sjbb", 11).Run(8000)
	if a.Accesses != b.Accesses || a.MissLatency.Mean() != b.MissLatency.Mean() {
		t.Errorf("closed-loop run not deterministic")
	}
}

func TestBankQueueing(t *testing.T) {
	s := newClosed(t, "tpcw", 1)
	bank := s.bankNodes[0]
	// Three back-to-back accesses to the same bank at cycle 0: they
	// serialize at BankLat (4) intervals; with access latency 4 the
	// completions land at 4, 8, 12.
	order := []int64{}
	for i := 0; i < 3; i++ {
		s.bankAfter(bank, s.p.BankLat, func() { order = append(order, s.net.Cycle()) })
	}
	// A different bank is independent: its access completes at 4.
	other := s.bankNodes[1]
	s.bankAfter(other, s.p.BankLat, func() { order = append(order, -s.net.Cycle()) })
	s.p.Workload.Intensity = 0 // no CPU noise
	s.Run(20)
	if len(order) != 4 {
		t.Fatalf("completions = %d, want 4", len(order))
	}
	want := []int64{4, -4, 8, 12}
	for i, w := range want {
		if order[i] != w {
			t.Fatalf("completion order = %v, want %v", order, want)
		}
	}
}

// The headline end-to-end claim: a faster network (3DM-E) reduces the
// CPU-visible L2 miss latency versus the 2DB baseline.
func TestClosedLoopArchitectureComparison(t *testing.T) {
	run := func(topo *topology.Topology, stlt int) float64 {
		w, _ := ByName("tpcw")
		p := DefaultParams(w, topo, 9)
		cfg := closedCfg(topo)
		cfg.STLTCycles = stlt
		s, err := NewClosedSystem(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		st := s.Run(15000)
		return st.MissLatency.Mean()
	}
	topo2 := nucaTopo(t)
	lat2DB := run(topo2, 2)

	topoE := topology.NewExpressMesh2D(6, 6, 1.58, 2)
	if err := topology.ApplyNUCALayout2D(topoE); err != nil {
		t.Fatal(err)
	}
	latE := run(topoE, 1)
	if latE >= lat2DB {
		t.Errorf("3DM-E miss latency %.1f should beat 2DB %.1f", latE, lat2DB)
	}
}

package noc

import (
	"runtime"
	"testing"

	"mira/internal/routing"
	"mira/internal/topology"
)

func cfgChiplet(lat, ser int, express bool) Config {
	c := cfg2D(1)
	c.Topo = topology.NewChipGrid(topology.ChipGridSpec{
		ChipsX: 2, ChipsY: 2, NodesX: 4, NodesY: 4,
		PitchMM: 3.1, D2DLatency: lat, D2DSerCycles: ser, Express: express,
	})
	c.Alg = routing.ChipDOR{}
	return c
}

// TestChipGridUnitTimingMatchesMesh pins the tentpole equivalence: a
// 2x2 grid of 4x4 chips with 1-cycle full-width d2d channels simulates
// bit-identically to the monolithic 8x8 mesh it tiles — same latencies,
// same hop counts, same switching activity (only link millimetres and
// the d2d attribution differ, since the gap-crossing wires are longer).
func TestChipGridUnitTimingMatchesMesh(t *testing.T) {
	run := func(cfg Config) Result {
		cfg.Seed = 42
		return shortSim(cfg, bernoulli(cfg.Topo, 0.12, 4, Data))
	}
	chip := cfgChiplet(1, 1, false)
	mesh := cfg2D(1)
	mesh.Topo = topology.NewMesh2D(8, 8, 3.1)
	a, b := run(chip), run(mesh)
	if a.AvgLatency != b.AvgLatency || a.AvgHops != b.AvgHops ||
		a.Generated != b.Generated || a.Ejected != b.Ejected {
		t.Fatalf("chip grid diverges from monolithic mesh:\n  grid %v\n  mesh %v", a.String(), b.String())
	}
	ca, cb := a.Counters, b.Counters
	if ca.BufWrites != cb.BufWrites || ca.BufReads != cb.BufReads ||
		ca.XbarFlits != cb.XbarFlits || ca.LinkFlits != cb.LinkFlits ||
		ca.SAGrants != cb.SAGrants || ca.VAGrants != cb.VAGrants ||
		ca.CreditStalls != cb.CreditStalls {
		t.Fatalf("activity diverges:\n  grid %+v\n  mesh %+v", ca, cb)
	}
	if ca.SerStalls != 0 || cb.D2DFlits != 0 {
		t.Fatalf("full-width grid stalled (%d) or mesh crossed dies (%d)", ca.SerStalls, cb.D2DFlits)
	}
	if ca.D2DFlits == 0 {
		t.Fatal("grid traffic never crossed a die boundary")
	}
}

// twoChipPacket runs one packet across the single d2d link of a
// 2x1-chip grid of 1x1-node dies and returns its latency.
func twoChipPacket(t *testing.T, lat, ser, size int) int64 {
	t.Helper()
	c := cfg2D(2)
	c.Topo = topology.NewChipGrid(topology.ChipGridSpec{
		ChipsX: 2, ChipsY: 1, NodesX: 1, NodesY: 1,
		PitchMM: 3.1, D2DLatency: lat, D2DSerCycles: ser,
	})
	c.Alg = routing.ChipDOR{}
	pkt := onePacket(t, c, Spec{Src: 0, Dst: 1, Size: size, Class: Data})
	return pkt.EjectedAt - pkt.CreatedAt
}

// TestChipletD2DLatency pins the d2d latency model at zero load: the
// 1-hop 1-flit baseline is 11 cycles (TestZeroLoadLatencySeparateSTLT),
// and each extra cycle of channel latency adds exactly one cycle.
func TestChipletD2DLatency(t *testing.T) {
	base := twoChipPacket(t, 1, 1, 1)
	if base != 11 {
		t.Fatalf("1-cycle d2d baseline latency = %d, want 11", base)
	}
	for _, lat := range []int{2, 5, 16} {
		got := twoChipPacket(t, lat, 1, 1)
		if want := base + int64(lat-1); got != want {
			t.Errorf("d2d lat=%d: latency %d, want %d", lat, got, want)
		}
	}
}

// probeFunc adapts a function to the Probe interface.
type probeFunc func(ProbeEvent)

func (f probeFunc) ProbeEvent(ev ProbeEvent) { f(ev) }

// TestChipletSerialization pins the narrow-channel model: a flit
// occupies the link for ser cycles, so the head arrives ser-1 cycles
// late (single-flit latency grows by exactly ser-1) and consecutive
// flits of a packet leave the upstream router exactly ser cycles
// apart, never faster.
func TestChipletSerialization(t *testing.T) {
	for _, ser := range []int{2, 4, 8} {
		base := twoChipPacket(t, 1, 1, 1)
		if got, want := twoChipPacket(t, 1, ser, 1), base+int64(ser-1); got != want {
			t.Errorf("ser=%d single flit: latency %d, want %d", ser, got, want)
		}
	}
	for _, c := range []struct{ ser, size int }{{1, 4}, {2, 4}, {4, 4}, {8, 5}} {
		cfg := cfg2D(2)
		cfg.Topo = topology.NewChipGrid(topology.ChipGridSpec{
			ChipsX: 2, ChipsY: 1, NodesX: 1, NodesY: 1,
			PitchMM: 3.1, D2DLatency: 1, D2DSerCycles: c.ser,
		})
		cfg.Alg = routing.ChipDOR{}
		net := NewNetwork(cfg)
		var departs []int64
		net.SetProbe(probeFunc(func(e ProbeEvent) {
			if e.Kind == ProbeSAGrant && e.Dir != topology.Local && e.Router == 0 {
				departs = append(departs, e.Cycle)
			}
		}))
		var done *Packet
		net.SetEjectHandler(func(p *Packet) { done = p })
		if _, err := net.Enqueue(Spec{Src: 0, Dst: 1, Size: c.size, Class: Data}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200 && done == nil; i++ {
			net.Step()
		}
		if done == nil {
			t.Fatalf("ser=%d size=%d: packet not delivered", c.ser, c.size)
		}
		if len(departs) != c.size {
			t.Fatalf("ser=%d size=%d: %d link traversals, want %d", c.ser, c.size, len(departs), c.size)
		}
		for i := 1; i < len(departs); i++ {
			if gap := departs[i] - departs[i-1]; gap != int64(c.ser) {
				t.Errorf("ser=%d size=%d: flits %d,%d depart %d apart, want exactly %d (occupancy-limited, back-to-back)",
					c.ser, c.size, i-1, i, gap, c.ser)
			}
		}
	}
}

// TestAutoShardsHeuristic pins the -shards=-1 resolution rule: one
// shard per autoShardRouters routers, capped by the cores a shard can
// hold (shardCores), meshes under two budgets sequential — 12x12 is the
// smallest mesh that shards.
func TestAutoShardsHeuristic(t *testing.T) {
	p := shardCores()
	if p > runtime.GOMAXPROCS(0) {
		t.Fatalf("shardCores() = %d exceeds GOMAXPROCS %d", p, runtime.GOMAXPROCS(0))
	}
	cases := []struct{ routers, want int }{
		{1, 1},
		{8 * 8, 1},
		{10 * 10, 1},
		{12*12 - 1, 1},
		{12 * 12, min(2, p)},
		{16 * 16, min(3, p)},
		{1024, min(14, p)},
		{1 << 20, p},
	}
	for _, c := range cases {
		if got := autoShards(c.routers); got != c.want {
			t.Errorf("autoShards(%d) = %d, want %d (%d cores)", c.routers, got, c.want, p)
		}
	}
}

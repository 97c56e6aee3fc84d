package noc

import (
	"runtime"
	"testing"

	"mira/internal/topology"
)

func cfgChiplet(lat, ser int, express bool) Config {
	c := cfg2D(1)
	c.Topo = topology.NewChipGrid(topology.ChipGridSpec{
		ChipsX: 2, ChipsY: 2, NodesX: 4, NodesY: 4,
		PitchMM: 3.1, D2DLatency: lat, D2DSerCycles: ser, Express: express,
	})
	return c
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

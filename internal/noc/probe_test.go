package noc

import (
	"context"
	"testing"

	"mira/internal/topology"
)

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

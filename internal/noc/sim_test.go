package noc

import (
	"context"
	"testing"
)

// TestSimSingleShot verifies a Sim refuses to run twice: its generator
// and RNG state are consumed by the first run, so a silent second run
// would produce a different traffic stream than a fresh Sim.
func TestSimSingleShot(t *testing.T) {
	mkSim := func() *Sim {
		s := NewSim(NewNetwork(cfg2D(2)), bernoulli(cfg2D(2).Topo, 0.05, 2, Data))
		s.Params = SimParams{Warmup: 10, Measure: 50, DrainMax: 500}
		return s
	}
	s := mkSim()
	s.Run(context.Background())
	defer func() {
		if recover() == nil {
			t.Fatal("second Run did not panic")
		}
	}()
	s.Run(context.Background())
}

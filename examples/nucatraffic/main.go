// NUCA traffic example: reproduce the layout-constrained request/
// response pattern of a NUCA CMP (8 CPUs querying 28 L2 banks) and show
// why the naive 3D stack (3DB) loses its hop-count advantage when all
// the CPUs must sit in the heat-sink layer, while the multi-layer
// designs keep theirs (§4.2.1, Figure 11 (b)/(d)).
//
// Run with: go run ./examples/nucatraffic
package main

import (
	"context"
	"fmt"

	"mira/internal/core"
	"mira/internal/exp"
	"mira/internal/routing"
	"mira/internal/topology"
)

func main() {
	opts := exp.Options{Warmup: 2000, Measure: 10000, Drain: 20000, Seed: 7}
	const rate = 0.10

	fmt.Println("NUCA request/response traffic (CPU -> bank -> CPU)")
	fmt.Println()
	fmt.Printf("%-10s %12s %12s %10s %10s\n", "design", "UR hops", "NUCA hops", "latency", "power (W)")

	for _, arch := range []core.Arch{core.Arch2DB, core.Arch3DB, core.Arch3DM, core.Arch3DME} {
		d := core.MustDesign(arch)
		urHops, err := routing.AverageHops(d.Topo, routing.DOR{}, nil, nil)
		check(err)
		req, err := routing.AverageHops(d.Topo, routing.DOR{}, d.Topo.CPUs(), d.Topo.Caches())
		check(err)
		resp, err := routing.AverageHops(d.Topo, routing.DOR{}, d.Topo.Caches(), d.Topo.CPUs())
		check(err)
		res := exp.RunNUCAUR(context.Background(), arch, rate, 0, opts)
		fmt.Printf("%-10s %12.2f %12.2f %10.2f %10.3f\n",
			arch, urHops, (req+resp)/2, res.AvgLatency, exp.NetworkPowerW(d, res, false))
	}

	fmt.Println()
	d3 := core.MustDesign(core.Arch3DB)
	fmt.Println("3DB layout (CPUs pinned to the heat-sink layer):")
	fmt.Println(topology.LayoutString(d3.Topo))
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}

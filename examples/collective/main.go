// Collective example: run the closed-loop collective workloads — ring
// AllReduce, reduce-scatter and binomial tree broadcast — over a
// 64-node fabric, once as a monolithic 8x8 mesh and once split into a
// 2x2 chiplet grid with slow serializing die-to-die channels, and
// report how completion time stretches when every dependent step has to
// cross the package boundary.
//
// Run with: go run ./examples/collective [iterations]
package main

import (
	"context"
	"fmt"
	"os"
	"strconv"

	"mira/internal/collective"
	"mira/internal/scenario"
)

func run(alg collective.Algorithm, chips *scenario.Chips, iters int) collective.Report {
	sc := scenario.Scenario{
		Arch:    "2DB",
		Measure: 200000,
		Drain:   50000,
		Seed:    1,
		Chips:   chips,
		Traffic: scenario.Traffic{
			Kind: "collective",
			Collective: &scenario.Collective{
				Algorithm:  string(alg),
				Iterations: iters,
			},
		},
	}
	e, err := sc.Elaborate()
	if err != nil {
		panic(err)
	}
	out, err := e.Run(context.Background())
	if err != nil {
		panic(err)
	}
	return out.Collective
}

func main() {
	iters := 3
	if len(os.Args) > 1 {
		n, err := strconv.Atoi(os.Args[1])
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "bad iteration count %q\n", os.Args[1])
			os.Exit(2)
		}
		iters = n
	}

	mono := &scenario.Chips{ChipsX: 1, ChipsY: 1, NodesX: 8, NodesY: 8}
	split := &scenario.Chips{ChipsX: 2, ChipsY: 2, NodesX: 4, NodesY: 4, D2DLatency: 8, D2DSerCycles: 4}

	fmt.Printf("closed-loop collectives, 64 ranks, 4-flit messages, %d iterations\n\n", iters)
	fmt.Printf("%-15s %6s %12s %12s %8s\n", "algorithm", "steps", "mono e2e", "chiplet e2e", "blowup")
	for _, alg := range collective.Algorithms() {
		m := run(alg, mono, iters)
		c := run(alg, split, iters)
		fmt.Printf("%-15s %6d %12.0f %12.0f %7.2fx\n",
			alg, m.Steps, m.Iteration.Mean(), c.Iteration.Mean(),
			c.Iteration.Mean()/m.Iteration.Mean())
	}
	fmt.Println("\ne2e = mean end-to-end completion per iteration, in cycles; the chiplet")
	fmt.Println("fabric is the same 64 routers behind 8-cycle, 4x-serialized d2d links.")
}

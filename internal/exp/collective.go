package exp

import (
	"context"
	"fmt"

	"mira/internal/collective"
	"mira/internal/core"
	"mira/internal/scenario"
	"mira/internal/stats"
)

// collectiveFabric is one floorplan point of the sweep.
type collectiveFabric struct {
	name  string
	chips scenario.Chips
}

// collectiveFabrics are chip grids whose 1x1 corner is the monolithic
// 8x8 mesh.
var collectiveFabrics = []collectiveFabric{
	{"8x8 mono", scenario.Chips{ChipsX: 1, ChipsY: 1, NodesX: 8, NodesY: 8, D2DLatency: 1, D2DSerCycles: 1}},
	{"2x2 d2d=1:1", scenario.Chips{ChipsX: 2, ChipsY: 2, NodesX: 4, NodesY: 4, D2DLatency: 1, D2DSerCycles: 1}},
	{"2x2 d2d=8:4", scenario.Chips{ChipsX: 2, ChipsY: 2, NodesX: 4, NodesY: 4, D2DLatency: 8, D2DSerCycles: 4}},
}

// CollectiveSweep runs every collective algorithm over a 64-node fabric
// in three floorplans: the monolithic 8x8 mesh, the same mesh split
// into a 2x2 chip grid with ideal (1-cycle full-width) d2d channels,
// and the grid with slow serializing channels (8-cycle latency, 4
// cycles per flit). The workload is closed-loop, so the columns are
// completion latencies, not offered-load curves: a step's messages
// launch only when their predecessors arrive, which is why d2d
// serialization compounds across the schedule instead of just adding a
// fixed per-hop cost.
func CollectiveSweep(ctx context.Context, o Options) (stats.Table, error) {
	t := stats.Table{
		ID:    "ext-collective",
		Title: "Collective completion: 64 ranks, 4-flit messages, 2 iterations",
		Header: []string{
			"algorithm", "fabric", "steps", "msg lat", "part min", "part mean", "part max", "e2e/iter", "done",
		},
	}
	algs := collective.Algorithms()
	// The workload is closed-loop — its length is set by the schedule,
	// not by an offered rate — so the measure window is widened (5x the
	// options') to let the slow-d2d corners complete; cycles after the
	// last delivery are idle and nearly free under activity stepping.
	// Warmup is zero: collectives start at cycle 0 (the scenario layer
	// rejects anything else for this kind).
	res, err := sweep(ctx, o, algs, collectiveFabrics, func(o Options, alg collective.Algorithm, fab collectiveFabric) scenario.Scenario {
		sc := o.Scenario(core.Arch2DB)
		sc.Warmup = 0
		sc.Measure = 5 * o.Measure
		sc.Traffic = scenario.Traffic{
			Kind: "collective",
			Collective: &scenario.Collective{
				Algorithm:  string(alg),
				Iterations: 2,
			},
		}
		chips := fab.chips
		sc.Chips = &chips
		return sc
	})
	if err != nil {
		return t, err
	}
	for i, alg := range algs {
		for j, fab := range collectiveFabrics {
			rep := res[i][j].Collective
			t.Rows = append(t.Rows, []string{
				string(alg),
				fab.name,
				fmt.Sprintf("%d", rep.Steps),
				f1(rep.Messages.Mean()),
				fmt.Sprintf("%d", rep.Participant.Min),
				f1(rep.Participant.Mean()),
				fmt.Sprintf("%d", rep.Participant.Max),
				f1(rep.Iteration.Mean()),
				fmt.Sprintf("%d/%d", rep.Completed, rep.Iterations),
			})
		}
	}
	t.Notes = append(t.Notes,
		"extension beyond the paper: causally-dependent collective traffic (internal/collective) instead of open-loop injection",
		"part = per-participant completion (last receive - iteration start, cycles); e2e/iter = mean end-to-end iteration latency",
		"ring allreduce takes 2(N-1) steps, reduce-scatter N-1, tree broadcast ceil(log2 N); the broadcast root receives nothing and is excluded from part",
	)
	return t, nil
}

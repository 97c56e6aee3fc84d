package exp

import (
	"context"
	"fmt"

	"mira/internal/collective"
	"mira/internal/core"
	"mira/internal/scenario"
)

// CollectiveFabric is one floorplan point of the sweep: a chip grid
// whose 1x1 corner is the monolithic 8x8 mesh.
type CollectiveFabric struct {
	name           string
	chipsX, chipsY int
	nodesX, nodesY int
	d2dLat, d2dSer int
}

// CollectiveFabrics returns the sweep's floorplan points.
func CollectiveFabrics() []CollectiveFabric {
	return []CollectiveFabric{
		{name: "8x8 mono", chipsX: 1, chipsY: 1, nodesX: 8, nodesY: 8, d2dLat: 1, d2dSer: 1},
		{name: "2x2 d2d=1:1", chipsX: 2, chipsY: 2, nodesX: 4, nodesY: 4, d2dLat: 1, d2dSer: 1},
		{name: "2x2 d2d=8:4", chipsX: 2, chipsY: 2, nodesX: 4, nodesY: 4, d2dLat: 8, d2dSer: 4},
	}
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
func CollectiveSweep(ctx context.Context, o Options) Table {
	t := Table{
		ID:    "ext-collective",
		Title: "Collective completion: 64 ranks, 4-flit messages, 2 iterations",
		Header: []string{
			"algorithm", "fabric", "steps", "msg lat", "part min", "part mean", "part max", "e2e/iter", "done",
		},
	}
	algs := collective.Algorithms()
	fabrics := CollectiveFabrics()
	points := make([]Point[Outcome], 0, len(algs)*len(fabrics))
	for _, alg := range algs {
		for _, fab := range fabrics {
			points = append(points, simPoint(fmt.Sprintf("collective %s %s", alg, fab.name),
				func(o Options) scenario.Scenario { return CollectiveScenario(alg, fab, o) }))
		}
	}
	res := RunAll(ctx, o, points)
	k := 0
	for _, alg := range algs {
		for _, fab := range fabrics {
			rep := res[k].Collective
			k++
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
	return t
}

// CollectiveScenario is the run description behind one sweep point. The
// workload is closed-loop — its length is set by the schedule, not by
// an offered rate — so the measure window is widened (5x the options')
// to let the slow-d2d corners complete; cycles after the last delivery
// are idle and nearly free under activity stepping. Warmup is zero:
// collectives start at cycle 0 (the scenario layer rejects anything
// else for this kind).
func CollectiveScenario(alg collective.Algorithm, fab CollectiveFabric, o Options) scenario.Scenario {
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
	sc.Chips = &scenario.Chips{
		ChipsX: fab.chipsX, ChipsY: fab.chipsY,
		NodesX: fab.nodesX, NodesY: fab.nodesY,
		D2DLatency: fab.d2dLat, D2DSerCycles: fab.d2dSer,
	}
	return sc
}

package exp

import (
	"context"
	"fmt"

	"mira/internal/core"
	"mira/internal/scenario"
	"mira/internal/stats"
)

// ChipletSweep evaluates the chiplet decomposition of the mesh: a 2x2
// grid of 4x4-node dies under uniform-random traffic, sweeping the
// die-to-die channel latency and serialization factor. The 1-cycle
// full-width corner is bit-identical to the equivalent monolithic 8x8
// mesh, so the sweep isolates exactly what the package boundary costs:
// added zero-load latency from the slower channels, and throughput loss
// from narrow serialized channels backing traffic up at the die edge.
func ChipletSweep(ctx context.Context, o Options) (stats.Table, error) {
	t := stats.Table{
		ID:    "ext-chiplet",
		Title: "Chiplet d2d link sweep: 2x2 chips of 4x4 nodes, uniform random @ 0.10",
		Header: []string{
			"d2d lat", "ser", "avg lat", "avg hops", "d2d flit %", "ser stalls", "delivered",
		},
	}
	const rate = 0.10
	lats := []int{1, 4, 8, 16}
	sers := []int{1, 4}
	// Each point is a 2x2 grid of 4x4-node chips (2DB router pipeline
	// and pitch) with the point's die-to-die latency and serialization.
	res, err := sweep(ctx, o, lats, sers, func(o Options, lat, ser int) scenario.Scenario {
		sc := o.synthetic(core.Arch2DB, "ur", rate)
		sc.Chips = &scenario.Chips{
			ChipsX: 2, ChipsY: 2, NodesX: 4, NodesY: 4,
			D2DLatency: lat, D2DSerCycles: ser,
		}
		return sc
	})
	if err != nil {
		return t, err
	}
	for i, lat := range lats {
		for j, ser := range sers {
			r := res[i][j].Result
			d2dPct := 0.0
			if r.Counters.LinkFlits > 0 {
				d2dPct = 100 * float64(r.Counters.D2DFlits) / float64(r.Counters.LinkFlits)
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", lat),
				fmt.Sprintf("%d", ser),
				latCell(r),
				f2(r.AvgHops),
				f1(d2dPct),
				fmt.Sprintf("%d", r.Counters.SerStalls),
				fmt.Sprintf("%d/%d", r.Ejected, r.Generated),
			})
		}
	}
	t.Notes = append(t.Notes,
		"extension beyond the paper: MIRA's mesh split across a chip grid with die-to-die link classes",
		"lat=1 ser=1 reproduces the monolithic 8x8 mesh bit-for-bit; ser=N makes each flit occupy the narrow d2d channel for N cycles with credits returned accordingly")
	return t, nil
}

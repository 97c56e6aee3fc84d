package exp

import (
	"context"

	"mira/internal/core"
	"mira/internal/scenario"
	"mira/internal/stats"
)

// Fig8 evaluates the router pipeline family of Figure 8: the canonical
// 4-stage pipeline, speculative switch allocation (3-stage), look-ahead
// routing plus speculation (2-stage), and the 3DM ST+LT combination —
// alone and stacked on top of the aggressive pipelines. Latencies are
// measured on the 6x6 mesh under uniform random traffic.
func Fig8(ctx context.Context, o Options) (stats.Table, error) {
	t := stats.Table{
		ID:     "fig8",
		Title:  "Router pipeline family (uniform random, 6x6 mesh)",
		Header: []string{"pipeline", "STLT", "lat @0.05", "lat @0.15", "lat @0.30"},
	}
	type variant struct {
		name       string
		look, spec bool
		stlt       int
	}
	variants := []variant{
		{"(a) RC|VA|SA|ST +LT", false, false, 2},
		{"(b) RC|VA+SA|ST +LT", false, true, 2},
		{"(c) VA+SA|ST +LT", true, true, 2},
		{"(d) RC|VA|SA|ST+LT (3DM)", false, false, 1},
		{"(c)+(d) VA+SA|ST+LT", true, true, 1},
	}
	rates := []float64{0.05, 0.15, 0.30}
	res, err := sweep(ctx, o, variants, rates, func(o Options, v variant, rate float64) scenario.Scenario {
		sc := o.synthetic(core.Arch2DB, "ur", rate)
		sc.LookaheadRC = v.look
		sc.SpecSA = v.spec
		sc.STLTCycles = v.stlt
		return sc
	})
	if err != nil {
		return t, err
	}
	for i, v := range variants {
		row := []string{v.name, f2(float64(v.stlt))}
		for _, out := range res[i] {
			row = append(row, latCell(out.Result))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"(d) assumes the 3DM wire lengths; on the real 2DB crossbar the combined stage misses the 500 ps budget (Table 3)")
	return t, nil
}

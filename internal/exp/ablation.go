package exp

import (
	"context"
	"fmt"

	"mira/internal/area"
	"mira/internal/core"
	"mira/internal/routing"
	"mira/internal/scenario"
	"mira/internal/stats"
)

// Ablation studies for the design choices DESIGN.md calls out. These go
// beyond the paper's figures: they quantify how sensitive the 3DM
// results are to the buffer geometry (§3.2.4 fixes 2 VCs for NUCA
// traffic; [23] argues half-size shared buffers suffice) and to the
// express-channel interval (Dally's express cubes leave it a free
// parameter; the paper uses the doubled wire budget for one extra hop).

// AblationBufferDepth sweeps the per-VC buffer depth of the 3DM router
// at a moderate and a high load.
func AblationBufferDepth(ctx context.Context, o Options) (stats.Table, error) {
	t := stats.Table{
		ID:     "ablation-buf",
		Title:  "3DM buffer-depth ablation (uniform random)",
		Header: []string{"depth (flits)", "lat @0.15", "lat @0.30", "buffer area um^2/layer"},
	}
	depths := []int{2, 4, 8, 16}
	var geoms []bufGeom
	for _, depth := range depths {
		geoms = append(geoms, bufGeom{core.VCsPerPort, depth})
	}
	res, err := bufSweep(ctx, o, geoms)
	if err != nil {
		return t, err
	}
	for i, depth := range depths {
		ap := designs()[core.Arch3DM].AreaParams
		ap.BufDepth = depth
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", depth), latCell(res[i][0].Result), latCell(res[i][1].Result),
			fmt.Sprintf("%.0f", area.Model(ap).Buffer),
		})
	}
	t.Notes = append(t.Notes, "the paper's 8-flit VCs are past the knee at NUCA-typical loads")
	return t, nil
}

// AblationVCs sweeps the VC count per port at fixed total buffer bits
// (VCs x depth constant), the tradeoff ViChaR [23] explores.
func AblationVCs(ctx context.Context, o Options) (stats.Table, error) {
	t := stats.Table{
		ID:     "ablation-vc",
		Title:  "3DM virtual-channel ablation at constant buffer bits (uniform random)",
		Header: []string{"VCs x depth", "lat @0.15", "lat @0.30"},
	}
	cfgs := []bufGeom{{1, 16}, {2, 8}, {4, 4}}
	res, err := bufSweep(ctx, o, cfgs)
	if err != nil {
		return t, err
	}
	for i, c := range cfgs {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%dx%d", c.vcs, c.depth), latCell(res[i][0].Result), latCell(res[i][1].Result),
		})
	}
	return t, nil
}

// ablationRates are the moderate/high loads every buffer-geometry
// ablation row reports.
var ablationRates = []float64{0.15, 0.30}

// bufGeom is one input-buffer geometry: VCs per port and flits per VC.
type bufGeom struct{ vcs, depth int }

// bufSweep runs uniform-random traffic on the 3DM design with each
// buffer geometry overridden, at both ablation rates.
func bufSweep(ctx context.Context, o Options, geoms []bufGeom) ([][]scenario.Outcome, error) {
	return sweep(ctx, o, geoms, ablationRates, func(o Options, g bufGeom, rate float64) scenario.Scenario {
		sc := o.synthetic(core.Arch3DM, "ur", rate)
		sc.VCs = g.vcs
		sc.BufDepth = g.depth
		return sc
	})
}

// AblationExpressInterval compares express-channel hop spans on the
// 3DM-E fabric. Interval 2 is the paper's design; interval 3 trades
// lower maximum radix for fewer skippable hops on a 6-wide mesh.
func AblationExpressInterval(ctx context.Context, o Options) (stats.Table, error) {
	t := stats.Table{
		ID:     "ablation-express",
		Title:  "Express-channel interval ablation (uniform random)",
		Header: []string{"interval", "max ports", "avg hops (UR)", "lat @0.15", "lat @0.30"},
	}
	intervals := []int{2, 3}
	point := func(o Options, interval int, rate float64) scenario.Scenario {
		sc := o.synthetic(core.Arch3DME, "ur", rate)
		sc.ExpressInterval = interval
		// The delay model would charge interval 3's longer express wires
		// a second ST+LT cycle; hold the pipeline constant so the
		// comparison isolates the topology.
		sc.STLTCycles = 1
		return sc
	}
	res, err := sweep(ctx, o, intervals, ablationRates, point)
	if err != nil {
		return t, err
	}
	for i, interval := range intervals {
		_, cfg, err := point(o, interval, ablationRates[0]).NoCConfig()
		if err != nil {
			return t, err
		}
		hops, err := routing.AverageHops(cfg.Topo, routing.DOR{}, nil, nil)
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", interval), fmt.Sprintf("%d", cfg.Topo.MaxPorts()),
			f2(hops), latCell(res[i][0].Result), latCell(res[i][1].Result),
		})
	}
	return t, nil
}

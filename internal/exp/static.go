package exp

import (
	"fmt"
	"strings"

	"mira/internal/area"
	"mira/internal/core"
	"mira/internal/power"
	"mira/internal/stats"
	"mira/internal/timing"
	"mira/internal/topology"
)

// Table1 regenerates the router component area table from the analytic
// area model.
func Table1() stats.Table {
	t := stats.Table{
		ID:     "table1",
		Title:  "Router component area (um^2); multi-layer entries are max per layer",
		Header: []string{"Area", "2DB", "3DB", "3DM", "3DM-E"},
	}
	params := []area.Params{
		{Ports: 5, VCs: 2, FlitWidth: 128, BufDepth: 8, Layers: 1},
		{Ports: 7, VCs: 2, FlitWidth: 128, BufDepth: 8, Layers: 1},
		{Ports: 5, VCs: 2, FlitWidth: 128, BufDepth: 8, Layers: 4},
		{Ports: 9, VCs: 2, FlitWidth: 128, BufDepth: 8, Layers: 4},
	}
	var bs []area.Breakdown
	for _, p := range params {
		bs = append(bs, area.Model(p))
	}
	row := func(name string, get func(area.Breakdown) float64) []string {
		cells := []string{name}
		for _, b := range bs {
			cells = append(cells, fmt.Sprintf("%.0f", get(b)))
		}
		return cells
	}
	t.Rows = append(t.Rows,
		row("RC", func(b area.Breakdown) float64 { return b.RC }),
		row("SA1", func(b area.Breakdown) float64 { return b.SA1 }),
		row("SA2", func(b area.Breakdown) float64 { return b.SA2 }),
		row("VA1", func(b area.Breakdown) float64 { return b.VA1 }),
		row("VA2", func(b area.Breakdown) float64 { return b.VA2 }),
		row("Crossbar", func(b area.Breakdown) float64 { return b.Crossbar }),
		row("Buffer", func(b area.Breakdown) float64 { return b.Buffer }),
		row("Total area", func(b area.Breakdown) float64 { return b.TotalRouter }),
	)
	vias3DB, ovh3DB := area.VerticalBusVias(params[1])
	t.Rows = append(t.Rows,
		[]string{"Total vias", "0", fmt.Sprintf("%d (W)", vias3DB), fmt.Sprintf("%d", bs[2].Vias), fmt.Sprintf("%d", bs[3].Vias)},
		[]string{"Via ovh/layer %", "0", f2(ovh3DB), f2(bs[2].ViaOverheadPct), f2(bs[3].ViaOverheadPct)},
	)
	t.Notes = append(t.Notes, "SA2/VA2 arbiter areas use the synthesis-calibrated lookup (see internal/area)")
	return t
}

// Table2 echoes the physical design parameters.
func Table2() stats.Table {
	return stats.Table{
		ID:     "table2",
		Title:  "Design parameters",
		Header: []string{"Parameter", "Value"},
		Rows: [][]string{
			{"Unbuffered link delay", fmt.Sprintf("%.0f ps/mm", timing.UnbufferedLinkPSPerMM)},
			{"Buffered link delay", fmt.Sprintf("%.2f ps/mm", timing.BufferedLinkPSPerMM)},
			{"Inverter delay (HSPICE)", fmt.Sprintf("%.2f ps", timing.InverterDelayPS)},
			{"2DB inter-router link", fmt.Sprintf("%.2f mm", core.Pitch2DMM)},
			{"3DM inter-router link", fmt.Sprintf("%.2f mm", core.Pitch3DMMM)},
			{"Clock", fmt.Sprintf("%.0f GHz (%.0f ps/stage)", timing.ClockGHz, timing.StageBudgetPS)},
		},
	}
}

// Table3 regenerates the ST+LT pipeline combination feasibility check.
func Table3() stats.Table {
	t := stats.Table{
		ID:     "table3",
		Title:  "Delay validation for pipeline combination (2 GHz, 500 ps budget)",
		Header: []string{"Design", "XBAR (ps)", "Link (ps)", "Combined (ps)", "ST+LT combined"},
	}
	cases := []struct {
		name    string
		side    float64
		linkLen float64
	}{
		{"2DB", 480, core.Pitch2DMM},
		{"3DB", 672, core.Pitch2DMM},
		{"3DM", 120, core.Pitch3DMMM},
		{"3DM-E", 216, core.Pitch3DMMM * core.ExpressInterval},
	}
	for _, c := range cases {
		d := timing.Evaluate(c.side, c.linkLen)
		yes := "No"
		if d.Combinable {
			yes = "Yes"
		}
		t.Rows = append(t.Rows, []string{c.name, f2(d.XbarPS), f2(d.LinkPS), f2(d.CombinedPS), yes})
	}
	t.Notes = append(t.Notes, "3DM-E is evaluated at its longest (express, 2-hop) link")
	return t
}

// Fig3 compares per-layer chip footprints: stacking shrinks the
// footprint by the layer count in both 3D organizations.
func Fig3() stats.Table {
	node2D := core.Pitch2DMM * core.Pitch2DMM
	node3DM := core.Pitch3DMMM * core.Pitch3DMMM
	rows := [][]string{
		{"2DB", "1", "36", f1(36 * node2D), "1.00"},
		{"3DB", "4", "9", f1(9 * node2D), f2(9 * node2D / (36 * node2D))},
		{"3DM", "4", "36", f1(36 * node3DM), f2(36 * node3DM / (36 * node2D))},
	}
	return stats.Table{
		ID:     "fig3",
		Title:  "Footprint comparison, 36 nodes (per-layer silicon area)",
		Header: []string{"Design", "Layers", "Nodes/layer", "Footprint (mm^2)", "vs 2DB"},
		Rows:   rows,
	}
}

// Fig9 is the per-flit energy breakdown by router component.
func Fig9() stats.Table {
	t := stats.Table{
		ID:     "fig9",
		Title:  "Flit energy breakdown (pJ per flit per hop)",
		Header: []string{"Design", "Buffer", "Crossbar", "Link", "Allocators", "Total"},
	}
	for _, a := range paperArchs {
		d := designs()[a]
		e := power.FlitHopEnergy(d.AreaParams, d.LinkLenMM)
		t.Rows = append(t.Rows, []string{
			d.Arch.String(), f2(e.Buffer), f2(e.Crossbar), f2(e.Link), f2(e.Allocators), f2(e.Total()),
		})
	}
	return t
}

// Fig10 prints the NUCA node layouts.
func Fig10() stats.Table {
	t := stats.Table{
		ID:     "fig10",
		Title:  "Node layouts for 36 cores (P = processor, c = cache)",
		Header: []string{"Design", "Layout"},
	}
	for _, l := range []struct {
		name string
		arch core.Arch
	}{{"2DB/3DM/3DM-E", core.Arch2DB}, {"3DB (layer 3 = heat sink)", core.Arch3DB}} {
		t.Rows = append(t.Rows, []string{l.name, ""})
		layout := topology.LayoutString(designs()[l.arch].Topo)
		for _, line := range strings.Split(strings.TrimSuffix(layout, "\n"), "\n") {
			t.Rows = append(t.Rows, []string{"", line})
		}
	}
	return t
}

package exp

import (
	"context"
	"fmt"
	"strings"

	"mira/internal/cmp"
	"mira/internal/core"
	"mira/internal/noc"
	"mira/internal/power"
	"mira/internal/scenario"
	"mira/internal/stats"
	"mira/internal/thermal"
	"mira/internal/topology"
)

// ExtLeakage is an extension experiment beyond the paper's figures: the
// leakage-thermal feedback the paper flags as a 3D risk (§2.2: "The
// increased temperature in 3D chips has negative impacts on ...
// leakage power"). For each design it converges the per-router leakage
// against its junction temperature and reports leakage as a share of
// network power at a moderate uniform-random load.
func ExtLeakage(ctx context.Context, o Options) (stats.Table, error) {
	t := stats.Table{
		ID:    "ext-leakage",
		Title: "Router leakage with thermal feedback (uniform random @ 0.15)",
		Header: []string{
			"design", "dyn W (network)", "leak W (network)", "leak %", "router T (K)",
		},
	}
	const rate = 0.15
	// Effective junction-to-ambient resistance seen by one router
	// column: the sink resistance under a node footprint, in parallel
	// with lateral spreading; a compact constant derived from the
	// thermal grid at the 3DM node pitch.
	const rNodeKPerW = 5.0
	archs := paperArchs
	results, err := sweep(ctx, o, archs, []float64{rate}, func(o Options, a core.Arch, rate float64) scenario.Scenario {
		return o.synthetic(a, "ur", rate)
	})
	if err != nil {
		return t, err
	}
	for i, a := range archs {
		d := designs()[a]
		res := results[i][0].Result
		dynTotal := NetworkPowerW(d, res, false)
		routers := float64(d.Topo.NumNodes())
		dynPerRouter := dynTotal / routers
		leakPerRouter, tempK := power.LeakageFixedPoint(
			dynPerRouter, d.Area.TotalRouter, rNodeKPerW, thermal.AmbientK)
		leakTotal := leakPerRouter * routers
		t.Rows = append(t.Rows, []string{
			d.Arch.String(),
			f3(dynTotal),
			f3(leakTotal),
			f1(100 * leakTotal / (leakTotal + dynTotal)),
			f1(tempK),
		})
	}
	t.Notes = append(t.Notes,
		"extension beyond the paper: 90 nm subthreshold leakage, doubling per 28 K, converged against router temperature",
		fmt.Sprintf("per-router junction resistance %.1f K/W above %.1f K ambient", rNodeKPerW, thermal.AmbientK))
	return t, nil
}

// ExtQoS evaluates the QoS use of the spare 3DM bandwidth suggested in
// §3.3: control/request packets get switch priority over data. It
// reports per-class latency with QoS off and on, near saturation where
// arbitration matters.
func ExtQoS(ctx context.Context, o Options) (stats.Table, error) {
	t := stats.Table{
		ID:     "ext-qos",
		Title:  "QoS priority arbitration, bimodal NUCA traffic (3DM)",
		Header: []string{"inj rate / QoS", "ctrl lat", "data lat", "avg lat"},
	}
	rates := []float64{0.15, 0.20}
	qosModes := []bool{false, true}
	res, err := sweep(ctx, o, rates, qosModes, func(o Options, rate float64, qos bool) scenario.Scenario {
		sc := o.synthetic(core.Arch3DM, "nuca", rate)
		sc.QoSPriority = qos
		return sc
	})
	if err != nil {
		return t, err
	}
	for i, rate := range rates {
		for j, qos := range qosModes {
			r := res[i][j].Result
			label := fmt.Sprintf("%.2f / off", rate)
			if qos {
				label = fmt.Sprintf("%.2f / on", rate)
			}
			t.Rows = append(t.Rows, []string{
				label,
				f1(r.PerClass[noc.Control].AvgLatency),
				f1(r.PerClass[noc.Data].AvgLatency),
				latCell(r),
			})
		}
	}
	t.Notes = append(t.Notes,
		"extension beyond the paper (§3.3 flags QoS as a use of the spare port bandwidth)",
		"largely a negative result for this traffic mix: the per-class VCs already isolate the sparse control packets, so switch priority buys little control latency and costs data latency once the network saturates (0.20 row)")
	return t, nil
}

// ExtFault evaluates the fault-tolerance use of §3.3: a 3DM mesh with a
// failed east link keeps operating under west-first routing. The table
// compares the healthy network under X-Y and west-first (the adaptivity
// tax) against the faulted network (the detour tax).
func ExtFault(ctx context.Context, o Options) (stats.Table, error) {
	t := stats.Table{
		ID:     "ext-fault",
		Title:  "Link-fault tolerance via west-first routing (3DM, uniform random @ 0.15)",
		Header: []string{"configuration", "avg lat", "avg hops", "delivered"},
	}
	// The faulted configuration fails the east link out of the centre
	// node (2,2), the highest-traffic region of the mesh.
	mid := int(designs()[core.Arch3DM].Topo.MustNodeAt(topology.Coord{X: 2, Y: 2}).ID)
	type faultCase struct {
		name    string
		routing string
		faults  []scenario.Fault
	}
	cases := []faultCase{
		{"healthy, X-Y", "xy", nil},
		{"healthy, west-first", "westfirst", nil},
		{"east link (2,2) failed, west-first", "westfirst", []scenario.Fault{{Src: mid, Dir: "east"}}},
	}
	res, err := sweep(ctx, o, []float64{0.15}, cases, func(o Options, rate float64, c faultCase) scenario.Scenario {
		sc := o.synthetic(core.Arch3DM, "ur", rate)
		sc.Routing = c.routing
		sc.Faults = c.faults
		return sc
	})
	if err != nil {
		return t, err
	}
	for j, out := range res[0] {
		r := out.Result
		t.Rows = append(t.Rows, []string{
			cases[j].name, latCell(r), f2(r.AvgHops),
			fmt.Sprintf("%d/%d", r.Ejected, r.Generated),
		})
	}

	t.Notes = append(t.Notes,
		"extension beyond the paper (§3.3 flags fault tolerance as a use of the spare channels)",
		"west faults are unroutable under the west-first turn model and are rejected at construction")
	return t, nil
}

// ExtProtocol compares the coherence protocol's impact on the network:
// MOESI's Owned state turns each read forward's immediate write-back
// into a deferred, eviction-time one, cutting data traffic and hence
// network power on sharing-heavy workloads.
func ExtProtocol(ctx context.Context, o Options) (stats.Table, error) {
	t := stats.Table{
		ID:     "ext-protocol",
		Title:  "MESI vs MOESI coherence traffic on the 3DM network",
		Header: []string{"workload/protocol", "WB packets", "flits", "net power (W)", "avg lat"},
	}
	names := []string{"barnes", "tpcw"}
	protos := []cmp.Protocol{cmp.MESI, cmp.MOESI}
	res, err := sweep(ctx, o, names, protos, func(o Options, name string, proto cmp.Protocol) scenario.Scenario {
		return o.trace(core.Arch3DM, name, strings.ToLower(proto.String()))
	})
	if err != nil {
		return t, err
	}
	d := designs()[core.Arch3DM]
	for i, name := range names {
		for j, proto := range protos {
			r := res[i][j]
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%s/%s", name, proto),
				fmt.Sprintf("%d", r.Stats.KindCounts[cmp.KindWriteBack]),
				fmt.Sprintf("%d", r.Stats.TotalFlits),
				f3(NetworkPowerW(d, r.Result, true)),
				latCell(r.Result),
			})
		}
	}
	t.Notes = append(t.Notes, "extension beyond the paper (which models MESI, §4.1.2)")
	return t, nil
}

// ExtHerding evaluates the paper's first future-work item: combining
// the true-3D (Thermal Herding) processor of Puttaswamy & Loh with the
// MIRA router. Steering core activity toward the heat-sink layer and
// shutting down router layers for short flits compound into a lower
// chip temperature than either technique alone.
func ExtHerding(ctx context.Context, o Options) (stats.Table, error) {
	t := stats.Table{
		ID:     "ext-herding",
		Title:  "Thermal herding + 3DM router shutdown (uniform random @ 0.20)",
		Header: []string{"configuration", "avg T rise (K)", "max T rise (K)"},
	}
	res, err := sweep(ctx, o, []float64{0.20}, []float64{0, 0.5}, func(o Options, rate, frac float64) scenario.Scenario {
		sc := o.synthetic(core.Arch3DM, "ur", rate)
		sc.Traffic.ShortFrac = frac
		return sc
	})
	if err != nil {
		return t, err
	}
	d := designs()[core.Arch3DM]
	r0, r50 := res[0][0].Result, res[0][1].Result
	cases := []struct {
		name string
		res  noc.Result
		dist [core.Layers]float64
	}{
		{"even cores, no short flits", r0, EvenCoreLayers},
		{"even cores, 50% short flits", r50, EvenCoreLayers},
		{"herded cores, no short flits", r0, HerdedCoreLayers},
		{"herded cores, 50% short flits", r50, HerdedCoreLayers},
	}
	for _, c := range cases {
		temps := solveChipTemps(d, c.res, c.dist)
		t.Rows = append(t.Rows, []string{c.name, f2(thermal.Average(temps)), f2(thermal.Max(temps))})
	}
	t.Notes = append(t.Notes,
		"extension: the paper's conclusion proposes combining true-3D processors [16] with the 3DM router",
		"herding steers 60% of core activity to the heat-sink layer")
	return t, nil
}

// ExtPatterns stresses the designs with adversarial synthetic patterns
// (transpose, complement, tornado, hotspot) beyond the paper's uniform
// random workload, probing whether the 3DM-E advantage survives
// non-uniform loads.
func ExtPatterns(ctx context.Context, o Options) (stats.Table, error) {
	t := stats.Table{
		ID:     "ext-patterns",
		Title:  "Adversarial traffic patterns: avg latency (cycles) at 0.15 flits/node/cycle",
		Header: []string{"pattern", "2DB", "3DB", "3DM", "3DM-E"},
	}
	archs := paperArchs
	const rate = 0.15
	// The hotspot row uses the scenario layer's default hot set: the
	// chip-centre nodes of each floorplan, 30 % of the traffic.
	type pattern struct {
		name string
		kind string
	}
	rows := []pattern{
		{"transpose", "transpose"},
		{"complement", "complement"},
		{"tornado", "tornado"},
		{"hotspot(4c,30%)", "hotspot"},
	}
	res, err := sweep(ctx, o, rows, archs, func(o Options, r pattern, a core.Arch) scenario.Scenario {
		sc := o.synthetic(a, r.kind, rate)
		if r.kind == "hotspot" {
			sc.Traffic.HotFrac = 0.3
		}
		return sc
	})
	if err != nil {
		return t, err
	}
	for i, r := range rows {
		row := []string{r.name}
		for _, out := range res[i] {
			row = append(row, latCell(out.Result))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"extension beyond the paper (MIRA evaluates uniform random only)",
		"the hotspot region is the chip centre: 4 nodes on the 6x6 floorplans but a single top-layer node on 3DB's 3x3, which therefore saturates")
	return t, nil
}

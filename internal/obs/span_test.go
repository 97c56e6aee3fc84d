package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"testing"

	"mira/internal/noc"
	"mira/internal/traffic"
)

// runSpans runs a short uniform-random simulation with live span
// building enabled, optionally recording the trace into buf.
func runSpans(t *testing.T, mutate func(*noc.Config), buf *bytes.Buffer) *Collector {
	t.Helper()
	nc := testConfig()
	if mutate != nil {
		mutate(&nc)
	}
	net := noc.NewNetwork(nc)
	c := New(net, Config{Spans: true})
	if buf != nil {
		c.SetTraceWriter(buf)
	}
	sim := noc.NewSim(net, &traffic.Uniform{Topo: nc.Topo, InjectionRate: 0.1, PacketSize: 4})
	sim.Params = noc.SimParams{Warmup: 0, Measure: 600, DrainMax: 3000}
	c.Attach(sim)
	res := sim.Run(context.Background())
	if err := c.Close(); err != nil {
		t.Fatalf("collector close: %v", err)
	}
	if res.Ejected == 0 {
		t.Fatal("no traffic simulated")
	}
	if err := c.Spans().Err(); err != nil {
		t.Fatalf("span builder error: %v", err)
	}
	if c.Spans().InFlight() != 0 {
		t.Fatalf("%d spans still open after a drained run", c.Spans().InFlight())
	}
	return c
}

// TestSpanTotalsMatchCollector is the acceptance pin: each flit's stage
// decomposition telescopes exactly to its inject-to-eject latency, and
// the aggregate mean equals the live collector's FlitMean bit for bit.
func TestSpanTotalsMatchCollector(t *testing.T) {
	for _, variant := range []struct {
		name   string
		mutate func(*noc.Config)
	}{
		{"baseline", nil},
		{"lookahead", func(c *noc.Config) { c.LookaheadRC = true }},
		{"specsa", func(c *noc.Config) { c.SpecSA = true }},
		{"specsa_lookahead", func(c *noc.Config) { c.SpecSA = true; c.LookaheadRC = true }},
		{"stlt1", func(c *noc.Config) { c.STLTCycles = 1 }},
		{"qos", func(c *noc.Config) { c.QoSPriority = true }},
	} {
		t.Run(variant.name, func(t *testing.T) {
			c := runSpans(t, variant.mutate, nil)
			spans := c.Spans().Spans()
			if len(spans) == 0 {
				t.Fatal("no spans built")
			}
			var sum, n int64
			for _, s := range spans {
				var stages int64
				for st := StageRoute; st < NumStages; st++ {
					stages += s.StageTotal(st)
				}
				if stages != s.Network() {
					t.Fatalf("flit %d.%d stages sum to %d, network latency %d", s.Pkt, s.Seq, stages, s.Network())
				}
				for h := 1; h < len(s.Hops); h++ {
					if s.Hops[h].Arrive != s.Hops[h-1].Depart {
						t.Fatalf("flit %d.%d hop %d arrives at %d, previous departs at %d",
							s.Pkt, s.Seq, h, s.Hops[h].Arrive, s.Hops[h-1].Depart)
					}
				}
				sum += s.Network()
				n++
			}
			live := c.Latency()
			if n != live.Flits {
				t.Fatalf("%d spans for %d collected flits", n, live.Flits)
			}
			if mean := float64(sum) / float64(n); mean != live.FlitMean {
				t.Fatalf("span mean %v != collector FlitMean %v", mean, live.FlitMean)
			}
			agg := c.Spans().Attribution()
			if tot := agg.Total(); tot.NetworkCycles() != sum || tot.N != n {
				t.Fatalf("attribution total %d/%d, want %d/%d", tot.NetworkCycles(), tot.N, sum, n)
			}
		})
	}
}

// TestSpansFromTraceMatchLive: folding the recorded (unfiltered) trace
// through BuildSpans reproduces the live builder's spans and
// attribution byte for byte.
func TestSpansFromTraceMatchLive(t *testing.T) {
	for _, variant := range []struct {
		name   string
		mutate func(*noc.Config)
	}{
		{"baseline", nil},
		{"lookahead", func(c *noc.Config) { c.LookaheadRC = true }},
	} {
		t.Run(variant.name, func(t *testing.T) {
			var buf bytes.Buffer
			c := runSpans(t, variant.mutate, &buf)
			// The recorded trace must also satisfy the strict replay
			// protocol (inject before any other event, even with
			// look-ahead routing computing routes at inject time).
			if _, err := Replay(bytes.NewReader(buf.Bytes())); err != nil {
				t.Fatalf("Replay: %v", err)
			}
			sb, err := BuildSpans(&buf, true)
			if err != nil {
				t.Fatalf("BuildSpans: %v", err)
			}
			spans, agg := sb.Spans(), sb.Attribution()
			liveSpans := c.Spans().Spans()
			lj, _ := json.Marshal(liveSpans)
			tj, _ := json.Marshal(spans)
			if !bytes.Equal(lj, tj) {
				t.Fatalf("trace-built spans differ from live (%d vs %d spans)", len(spans), len(liveSpans))
			}
			liveTbl := c.Spans().Attribution().CombinedTable().String()
			traceTbl := agg.CombinedTable().String()
			if liveTbl != traceTbl {
				t.Fatalf("attribution differs:\nlive:\n%s\ntrace:\n%s", liveTbl, traceTbl)
			}
		})
	}
}

// TestSpanAttributionTables checks grouping semantics: every grouping's
// rows sum to the total, class/hop keys are sensible, and unknown
// groupings error.
func TestSpanAttributionTables(t *testing.T) {
	c := runSpans(t, nil, nil)
	agg := c.Spans().Attribution()
	tot := agg.Total()
	for _, g := range Groupings() {
		tbl, err := agg.Table(g)
		if err != nil {
			t.Fatalf("Table(%s): %v", g, err)
		}
		if len(tbl.Rows) == 0 {
			t.Fatalf("grouping %s has no rows", g)
		}
		var n, network int64
		for _, row := range tbl.Rows {
			rn, err := strconv.ParseInt(row[1], 10, 64)
			if err != nil {
				t.Fatalf("grouping %s: bad n %q", g, row[1])
			}
			rnet, err := strconv.ParseInt(row[len(row)-2], 10, 64)
			if err != nil {
				t.Fatalf("grouping %s: bad network %q", g, row[len(row)-2])
			}
			n += rn
			network += rnet
		}
		if network != tot.NetworkCycles() {
			t.Errorf("grouping %s network cycles %d != total %d", g, network, tot.NetworkCycles())
		}
		if g != GroupRouter && n != tot.N {
			t.Errorf("grouping %s n %d != total flits %d", g, n, tot.N)
		}
		if g == GroupRouter && n < tot.N {
			t.Errorf("router grouping visits %d < flits %d", n, tot.N)
		}
	}
	if _, err := agg.Table("nope"); err == nil {
		t.Error("unknown grouping did not error")
	}
	comb := agg.CombinedTable()
	if comb.Rows[0][0] != "total" {
		t.Errorf("combined table does not lead with total row: %v", comb.Rows[0])
	}
	if !strings.Contains(comb.CSV(), "group,key,n,queue,route,va_stall,sa_stall,st_lt,network,per_n") {
		t.Errorf("combined CSV header wrong:\n%s", comb.CSV())
	}
}

// TestSpanBuilderRejectsFilteredTrace: a node-filtered trace truncates
// per-flit histories and must fail loudly.
func TestSpanBuilderRejectsFilteredTrace(t *testing.T) {
	var buf bytes.Buffer
	nc := testConfig()
	net := noc.NewNetwork(nc)
	c := New(net, Config{TraceNodes: []int{0, 1}})
	c.SetTraceWriter(&buf)
	sim := noc.NewSim(net, &traffic.Uniform{Topo: nc.Topo, InjectionRate: 0.1, PacketSize: 4})
	sim.Params = noc.SimParams{Warmup: 0, Measure: 600, DrainMax: 3000}
	c.Attach(sim)
	sim.Run(context.Background())
	if err := c.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := BuildSpans(&buf, false); err == nil {
		t.Error("BuildSpans accepted a filtered trace")
	}
}

// TestSpanBuilderCycleZero pins the explicit injected state: cycle 0 is
// an inject cycle like any other, so a second inject of a flit injected
// at 0 is a duplicate, and a look-ahead flit whose route precedes its
// cycle-0 inject (created at 0) is a valid span, not an uninjected one.
func TestSpanBuilderCycleZero(t *testing.T) {
	ev := func(kind noc.ProbeKind, cycle int64, router int32) Event {
		e := mkEvent(kind, cycle, 7, 0)
		e.Router = router
		return e
	}
	feedAll := func(events ...Event) *SpanBuilder {
		b := NewSpanBuilder(true)
		for i := range events {
			b.Feed(&events[i])
		}
		return b
	}

	b := feedAll(ev(noc.ProbeInject, 0, 3), ev(noc.ProbeInject, 0, 3))
	if err := b.Err(); err == nil || !strings.Contains(err.Error(), "injected twice") {
		t.Errorf("duplicated cycle-0 inject: err = %v, want injected twice", err)
	}

	b = feedAll(ev(noc.ProbeRoute, 0, 3), ev(noc.ProbeInject, 0, 3), ev(noc.ProbeVCAlloc, 1, 3),
		ev(noc.ProbeSAGrant, 2, 3), ev(noc.ProbeEject, 4, 3))
	if err := b.Err(); err != nil {
		t.Fatalf("cycle-0 look-ahead flit rejected: %v", err)
	}
	spans := b.Spans()
	if len(spans) != 1 || b.InFlight() != 0 {
		t.Fatalf("%d spans, %d in flight, want 1 and 0", len(spans), b.InFlight())
	}
	want := HopSpan{Router: 3, Arrive: 0, Route: 0, Alloc: 1, Grant: 2, Depart: 4, Dir: "local"}
	if s := spans[0]; s.Inject != 0 || s.Eject != 4 || len(s.Hops) != 1 || s.Hops[0] != want {
		t.Errorf("span = %+v, want inject 0, eject 4 and the hop %+v", s, want)
	}

	// A routed flit that is never injected still fails at its eject.
	b = feedAll(ev(noc.ProbeRoute, 0, 3), ev(noc.ProbeVCAlloc, 1, 3),
		ev(noc.ProbeSAGrant, 2, 3), ev(noc.ProbeEject, 4, 3))
	if err := b.Err(); err == nil || !strings.Contains(err.Error(), "without an inject") {
		t.Errorf("uninjected flit: err = %v, want ejected without an inject event", err)
	}
}

// TestSpanBuilderRejectsRouterOutOfRange: a router number indexes the
// attribution's router rows, so a trace naming one below 0 or past 65535
// fails the fold instead of indexing (or allocating) past them.
func TestSpanBuilderRejectsRouterOutOfRange(t *testing.T) {
	for _, router := range []int32{-1, 1 << 16} {
		e := mkEvent(noc.ProbeInject, 0, 7, 0)
		e.Router = router
		_, err := BuildSpans(jsonl(e), false)
		if want := fmt.Sprintf("at router %d", router); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("router %d: err = %v, want %q", router, err, want)
		}
	}
}

// TestPerfettoExport: schema shape, lane non-overlap per (pid, tid),
// and byte determinism across two identical runs.
func TestPerfettoExport(t *testing.T) {
	c1 := runSpans(t, nil, nil)
	c2 := runSpans(t, nil, nil)
	var b1, b2 bytes.Buffer
	if err := WritePerfetto(&b1, c1.Spans().Spans()); err != nil {
		t.Fatalf("WritePerfetto: %v", err)
	}
	if err := WritePerfetto(&b2, c2.Spans().Spans()); err != nil {
		t.Fatalf("WritePerfetto: %v", err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Error("identical runs produced different Perfetto JSON")
	}

	var doc struct {
		TraceEvents []TraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(b1.Bytes(), &doc); err != nil {
		t.Fatalf("exported JSON does not parse: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events exported")
	}
	type track struct{ pid, tid int }
	type iv struct{ start, end int64 }
	lanes := map[track][]iv{}
	sawMeta, sawSlice := false, false
	for _, e := range doc.TraceEvents {
		switch e.Phase {
		case "M":
			sawMeta = true
		case "X":
			sawSlice = true
			if e.Dur <= 0 {
				t.Fatalf("zero/negative duration slice %q", e.Name)
			}
			lanes[track{e.PID, e.TID}] = append(lanes[track{e.PID, e.TID}], iv{e.TS, e.TS + e.Dur})
		default:
			t.Fatalf("unexpected phase %q", e.Phase)
		}
	}
	if !sawMeta || !sawSlice {
		t.Fatalf("missing metadata (%v) or slices (%v)", sawMeta, sawSlice)
	}
	// Stage sub-slices of one visit share a lane and tile [start, end);
	// distinct visits on a lane must not overlap. Since stage slices of
	// a visit are emitted adjacent and non-overlapping, it suffices that
	// no two slices on a lane overlap.
	for tr, ivs := range lanes {
		byStart := append([]iv(nil), ivs...)
		sort.Slice(byStart, func(a, b int) bool {
			if byStart[a].start != byStart[b].start {
				return byStart[a].start < byStart[b].start
			}
			return byStart[a].end < byStart[b].end
		})
		for i := 1; i < len(byStart); i++ {
			if byStart[i].start < byStart[i-1].end {
				t.Fatalf("track %+v has overlapping slices [%d,%d) and [%d,%d)",
					tr, byStart[i-1].start, byStart[i-1].end, byStart[i].start, byStart[i].end)
			}
		}
	}
}

// TestCongestionHeatmap: cell totals equal the attribution's total
// stall cycles (route + VA + SA waits), and the matrix extraction is
// shape-consistent.
func TestCongestionHeatmap(t *testing.T) {
	c := runSpans(t, nil, nil)
	spans := c.Spans().Spans()
	tbl := CongestionHeatmap(spans, 200)
	if len(tbl.Rows) == 0 || len(tbl.Header) < 2 {
		t.Fatalf("empty heatmap: header %v", tbl.Header)
	}
	m, rowLabels, colLabels := HeatmapMatrix(tbl)
	if len(m) != len(tbl.Rows) || len(rowLabels) != len(m) || len(colLabels) != len(tbl.Header)-1 {
		t.Fatalf("matrix shape mismatch: %d rows, %d labels, %d cols", len(m), len(rowLabels), len(colLabels))
	}
	var cellSum int64
	for _, row := range m {
		for _, v := range row {
			cellSum += int64(v)
		}
	}
	tot := c.Spans().Attribution().Total()
	wantStall := tot.Cycles[StageRoute] + tot.Cycles[StageVA] + tot.Cycles[StageSA]
	if cellSum != wantStall {
		t.Fatalf("heatmap cells sum to %d, attribution stalls %d", cellSum, wantStall)
	}
}

// TestSpanArtifactsIdenticalAcrossStepModes pins byte-identity of every
// span-derived artifact — the combined attribution CSV, the Perfetto
// trace-event JSON and the congestion heatmap CSV — between the two
// step modes: checked mode's per-cycle invariant pass reads the network
// between cycles and must leave no trace in what the probe sees.
func TestSpanArtifactsIdenticalAcrossStepModes(t *testing.T) {
	type artifacts struct {
		attrib, perfetto, heatmap string
	}
	build := func(mode noc.StepMode) artifacts {
		c := runSpans(t, func(nc *noc.Config) { nc.Mode = mode }, nil)
		sb := c.Spans()
		var buf bytes.Buffer
		if err := WritePerfetto(&buf, sb.Spans()); err != nil {
			t.Fatalf("WritePerfetto: %v", err)
		}
		return artifacts{
			attrib:   sb.Attribution().CombinedTable().CSV(),
			perfetto: buf.String(),
			heatmap:  CongestionHeatmap(sb.Spans(), 200).CSV(),
		}
	}
	ref, got := build(noc.StepActivity), build(noc.StepChecked)
	if len(ref.perfetto) == 0 || len(ref.attrib) == 0 {
		t.Fatal("reference artifacts empty; comparison is vacuous")
	}
	if got.attrib != ref.attrib {
		t.Error("checked attribution CSV diverges from activity")
	}
	if got.perfetto != ref.perfetto {
		t.Error("checked perfetto JSON diverges from activity")
	}
	if got.heatmap != ref.heatmap {
		t.Error("checked heatmap CSV diverges from activity")
	}
}

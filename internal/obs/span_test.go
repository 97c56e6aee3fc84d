package obs

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"mira/internal/noc"
	"mira/internal/topology"
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
				for _, h := range s.Hops { // route, VA, SA and ST+LT tile each visit
					stages += h.Depart - h.Arrive
				}
				if stages != s.Eject-s.Inject {
					t.Fatalf("flit %d.%d stages sum to %d, network latency %d", s.Pkt, s.Seq, stages, s.Eject-s.Inject)
				}
				for h := 1; h < len(s.Hops); h++ {
					if s.Hops[h].Arrive != s.Hops[h-1].Depart {
						t.Fatalf("flit %d.%d hop %d arrives at %d, previous departs at %d",
							s.Pkt, s.Seq, h, s.Hops[h].Arrive, s.Hops[h-1].Depart)
					}
				}
				sum += s.Eject - s.Inject
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
	for _, g := range groupNames {
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
	ev := func(kind noc.ProbeKind, cycle int64, router int32) noc.ProbeEvent {
		e := mkEvent(kind, cycle, 7, 0)
		e.Router = router
		return e
	}
	feedAll := func(events ...noc.ProbeEvent) *SpanBuilder {
		b := newSpanBuilder(true, true)
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
	if err := WriteTraceDoc(&b1, PerfettoDoc(c1.Spans().Spans())); err != nil {
		t.Fatalf("WriteTraceDoc: %v", err)
	}
	if err := WriteTraceDoc(&b2, PerfettoDoc(c2.Spans().Spans())); err != nil {
		t.Fatalf("WriteTraceDoc: %v", err)
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
// stall cycles (route + VA + SA waits), and the table has the matrix's
// shape.
func TestCongestionHeatmap(t *testing.T) {
	c := runSpans(t, nil, nil)
	spans := c.Spans().Spans()
	hm := CongestionHeatmap(spans, 200)
	tbl := hm.Table()
	if len(tbl.Rows) == 0 || len(tbl.Header) < 2 {
		t.Fatalf("empty heatmap: header %v", tbl.Header)
	}
	var cellSum int64
	for r, row := range hm.Cells {
		if len(row) != len(tbl.Header)-1 || tbl.Rows[r][0] != fmt.Sprint(r) {
			t.Fatalf("router %d: %d cells under %d window columns, label %q", r, len(row), len(tbl.Header)-1, tbl.Rows[r][0])
		}
		for _, v := range row {
			cellSum += v
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
		if err := WriteTraceDoc(&buf, PerfettoDoc(sb.Spans())); err != nil {
			t.Fatalf("WriteTraceDoc: %v", err)
		}
		return artifacts{
			attrib:   sb.Attribution().CombinedTable().CSV(),
			perfetto: buf.String(),
			heatmap:  CongestionHeatmap(sb.Spans(), 200).Table().CSV(),
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

// arenaSpans is the span store the log replaced, kept as the reference:
// a fixed-width header per span and a hop record per hop, materialized
// with each hop's arrival and departure derived from the ST+LT depth.
type arenaSpans struct {
	hdrs  []spanHdr
	nhops []int
	hops  []hop
}

func (a *arenaSpans) push(s *spanHdr, hops []hop) {
	a.hdrs, a.nhops, a.hops = append(a.hdrs, *s), append(a.nhops, len(hops)), append(a.hops, hops...)
}

func (a *arenaSpans) spans() []FlitSpan {
	spans := make([]FlitSpan, len(a.hdrs))
	hops := make([]HopSpan, len(a.hops))
	first := 0
	for i := range spans {
		s := &a.hdrs[i]
		end := first + a.nhops[i]
		stlt := s.eject - a.hops[end-1].grant
		arrive := s.inject
		for j := first; j < end; j++ {
			h := &a.hops[j]
			hops[j] = HopSpan{Router: int(h.router), Arrive: arrive, Route: h.route, Alloc: h.alloc, Grant: h.grant,
				Depart: h.grant + stlt, Dir: topology.Dir(h.dir).String(), VC: int(h.vc)}
			arrive = hops[j].Depart
		}
		spans[i] = FlitSpan{Pkt: s.pkt, Seq: int(s.seq), Type: flitTypeName(s.typ), Class: s.class.String(),
			Src: int(s.src), Dst: int(s.dst), Layers: int(s.layers),
			Created: s.created, Inject: s.inject, Eject: s.eject, Hops: hops[first:end:end]}
		first = end
	}
	return spans
}

// loggedSpan is one completed span as the log is handed it.
type loggedSpan struct {
	hdr  spanHdr
	hops []hop
}

// maxFuzzHops lets a fuzzed span's worst case outgrow a chunk (past
// about 1 550 hops), which gets a chunk of its own.
const maxFuzzHops = 2048

// fuzzSpans decodes a fuzz input into spans: per span, varints for pkt,
// created, inject, ST+LT, seq, src, dst and the hop count, then a byte
// each for type, class and layers; per hop, varints for router and the
// waits route-arrive, alloc-route and grant-alloc, then a byte each for
// dir and vc. Eject is the last grant plus ST+LT, as in any span. A span
// whose type byte has its top bit set, of a packet with a head earlier in
// the input, follows the last such head: its created, src, dst, class,
// ST+LT and hop count and its hops' routers, dirs and vcs are the head's
// plus what the input holds (hop j adds to head hop j mod the head's
// count), so zeros and zero route and VC waits make it the body or tail
// the log writes compact. A span the input ends inside is dropped.
// spanInput is its inverse.
func fuzzSpans(data []byte) (spans []loggedSpan) {
	read := func(v []int64, raw []byte) bool {
		for i := range v {
			n := 0
			if v[i], n = binary.Varint(data); n <= 0 {
				return false
			}
			data = data[n:]
		}
		if len(data) < len(raw) {
			return false
		}
		data = data[copy(raw, data):]
		return true
	}
	heads := map[int64]loggedSpan{}
	for {
		var v [8]int64
		var b [3]byte
		if !read(v[:], b[:]) {
			return spans
		}
		base := loggedSpan{hops: make([]hop, 1)} // all zero: the fields are as read
		if h, ok := heads[v[0]]; ok && b[0] >= 0x80 {
			base = h
		}
		s := loggedSpan{hdr: spanHdr{pkt: v[0], created: base.hdr.created + v[1], inject: v[2], seq: int32(v[4]),
			src: base.hdr.src + int32(v[5]), dst: base.hdr.dst + int32(v[6]),
			typ: noc.FlitType(int(b[0]) % len(flitTypeNames)), class: (base.hdr.class + noc.Class(b[1])) % noc.NumClasses,
			layers: b[2]}}
		stlt, arrive := base.stlt()+v[3], v[2]
		for n := 1 + uint64(int64(len(base.hops)-1)+v[7])%maxFuzzHops; n > 0; n-- {
			if !read(v[:4], b[:2]) {
				return spans
			}
			p := base.hops[len(s.hops)%len(base.hops)]
			h := hop{router: int32((uint64(p.router) + uint64(v[0])) % (1 << 16)), route: arrive + v[1],
				dir: p.dir + int8(b[0]), vc: p.vc + int8(b[1])}
			h.alloc = h.route + v[2]
			h.grant = h.alloc + v[3]
			s.hops, arrive = append(s.hops, h), h.grant+stlt
		}
		s.hdr.eject = arrive
		if s.hdr.typ == noc.HeadFlit {
			heads[s.hdr.pkt] = s
		}
		spans = append(spans, s)
	}
}

func (s *loggedSpan) stlt() int64 { return s.hdr.eject - s.hops[len(s.hops)-1].grant }

func spanInput(spans ...loggedSpan) (data []byte) {
	heads := map[int64]loggedSpan{}
	for _, s := range spans {
		h, base, typ := &s.hdr, loggedSpan{hops: make([]hop, 1)}, byte(s.hdr.typ)
		if head, ok := heads[h.pkt]; ok {
			base, typ = head, typ|0x80
		}
		b := &base.hdr
		for _, v := range [...]int64{h.pkt, h.created - b.created, h.inject, s.stlt() - base.stlt(),
			int64(h.seq), int64(h.src - b.src), int64(h.dst - b.dst), int64(len(s.hops) - len(base.hops))} {
			data = binary.AppendVarint(data, v)
		}
		classes := int(noc.NumClasses)
		data = append(data, typ, byte((int(h.class)-int(b.class)+classes)%classes), h.layers)
		arrive, stlt := h.inject, s.stlt()
		for j, p := range s.hops {
			q := base.hops[j%len(base.hops)]
			for _, v := range [...]int64{int64(p.router - q.router), p.route - arrive, p.alloc - p.route, p.grant - p.alloc} {
				data = binary.AppendVarint(data, v)
			}
			data, arrive = append(data, byte(p.dir-q.dir), byte(p.vc-q.vc)), p.grant+stlt
		}
		if h.typ == noc.HeadFlit {
			heads[h.pkt] = s
		}
	}
	return data
}

// FuzzSpanLog: any sequence of completed spans, logged 1+repeat%8 times
// over, reads back from the log exactly as the arena store materialized
// it, and no chunk of the log was ever grown by copying.
func FuzzSpanLog(f *testing.F) {
	hdr := func(pkt, created, inject, eject int64) spanHdr {
		return spanHdr{pkt: pkt, created: created, inject: inject, eject: eject, seq: 1, src: 3, dst: 12, typ: noc.BodyFlit}
	}
	at := func(router int32, route, alloc, grant int64) hop {
		return hop{router: router, route: route, alloc: alloc, grant: grant, dir: int8(topology.East)}
	}
	// Replayed streams reuse IDs: pkt and inject go backwards.
	f.Add(spanInput(
		loggedSpan{hdr(100, 40, 50, 58), []hop{at(3, 51, 52, 54), at(4, 56, 56, 56)}},
		loggedSpan{hdr(3, 10, 10, 14), []hop{at(0, 10, 11, 12)}},
		loggedSpan{hdr(3, 9, 9, 20), []hop{at(0, 12, 15, 18)}}), uint8(1))
	extreme := loggedSpan{spanHdr{pkt: math.MinInt64, created: math.MaxInt64, inject: math.MinInt64, eject: math.MaxInt64,
		seq: math.MinInt32, src: math.MaxInt32, dst: -1, typ: noc.HeadTailFlit, class: noc.Data, layers: 255},
		[]hop{{route: math.MinInt64, alloc: math.MaxInt64, grant: math.MinInt64, router: 65535, dir: math.MinInt8, vc: math.MaxInt8}}}
	f.Add(spanInput(extreme, loggedSpan{hdr(math.MaxInt64, 0, math.MaxInt64, math.MinInt64), []hop{at(1, math.MaxInt64, 0, 1)}}), uint8(0))
	vcs := loggedSpan{hdr(7, 0, 1, 9), []hop{at(65535, 2, 3, 4), at(65534, 6, 6, 7)}}
	vcs.hops[0].vc, vcs.hops[1].vc = -1, 127
	f.Add(spanInput(vcs), uint8(0))
	// Every stage wait -1, ten bytes in the log: 400 hops five times over
	// leave the fifth span too little of the first chunk, and 2 000 hops
	// outgrow a chunk. The span after those starts a chunk again.
	waits := func(pkt int64, n int) loggedSpan {
		s := loggedSpan{hdr: hdr(pkt, 0, 0, 0)}
		for arrive := int64(0); len(s.hops) < n; arrive -= 2 {
			s.hops = append(s.hops, at(int32(len(s.hops)), arrive-1, arrive-2, arrive-3))
			s.hdr.eject = arrive - 2 // ST+LT 1
		}
		return s
	}
	f.Add(spanInput(waits(5, 400)), uint8(4))
	f.Add(spanInput(waits(9, 2000), loggedSpan{hdr(10, 0, 1, 3), []hop{at(0, 1, 1, 2)}}), uint8(0))
	// flit is a flit of packet pkt through routers rs, ST+LT 2; a head
	// waits a cycle each for its route and its VC, a body or tail for
	// neither, so it follows its head's span compact when rs are equal.
	flit := func(pkt int64, typ noc.FlitType, dst int32, inject int64, rs ...int32) loggedSpan {
		s, arrive, wait := loggedSpan{hdr: spanHdr{pkt: pkt, inject: inject, seq: int32(typ), dst: dst, typ: typ}}, inject, int64(0)
		if typ == noc.HeadFlit {
			wait = 1
		}
		for _, r := range rs {
			h := at(r, arrive+wait, arrive+2*wait, arrive+2*wait+1)
			s.hops, arrive = append(s.hops, h), h.grant+2
		}
		s.hdr.eject = arrive
		return s
	}
	// Two packets interleaved across destinations, logged three times
	// over: their IDs are reused.
	f.Add(spanInput(flit(20, noc.HeadFlit, 5, 0, 0, 1, 5), flit(21, noc.HeadFlit, 9, 1, 4, 5, 9),
		flit(20, noc.BodyFlit, 5, 1, 0, 1, 5), flit(21, noc.BodyFlit, 9, 2, 4, 5, 9),
		flit(20, noc.TailFlit, 5, 2, 0, 1, 5), flit(21, noc.TailFlit, 9, 3, 4, 5, 9)), uint8(2))
	// A reused ID whose first packet's tail was never logged: the body
	// after the second head takes the first head's path, so it must not
	// be written against the second.
	f.Add(spanInput(flit(30, noc.HeadFlit, 7, 0, 0, 1, 2), flit(30, noc.BodyFlit, 7, 1, 0, 1, 2),
		flit(30, noc.HeadFlit, 7, 10, 0, 3, 2), flit(30, noc.BodyFlit, 7, 11, 0, 1, 2),
		flit(30, noc.TailFlit, 7, 12, 0, 3, 2)), uint8(0))
	// A body and tail whose head was never logged.
	f.Add(spanInput(flit(40, noc.BodyFlit, 3, 0, 0, 1), flit(40, noc.TailFlit, 3, 1, 0, 1)), uint8(0))
	// A body that leaves one hop on another VC than its head.
	vc := flit(50, noc.BodyFlit, 6, 1, 0, 1, 2)
	vc.hops[1].vc = 1
	f.Add(spanInput(flit(50, noc.HeadFlit, 6, 0, 0, 1, 2), vc, flit(50, noc.TailFlit, 6, 2, 0, 1, 2)), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, repeat uint8) {
		b, ref := newSpanBuilder(true, true), arenaSpans{}
		spans := fuzzSpans(data)
		made := map[int]bool{logChunk: true} // the capacities add gives a chunk
		for r := 0; r <= int(repeat%8); r++ {
			for i := range spans {
				b.log.add(&spans[i].hdr, spans[i].hops)
				ref.push(&spans[i].hdr, spans[i].hops)
				made[maxSpanBytes+len(spans[i].hops)*maxHopBytes] = true
			}
		}
		got, want := b.Spans(), ref.spans()
		if len(got) != len(want) {
			t.Fatalf("the log read back %d spans, want %d", len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("span %d read back as\n%+v\nwant\n%+v", i, got[i], want[i])
			}
		}
		var size int64
		for i, c := range b.log.chunks {
			if size += int64(len(c)); !made[cap(c)] {
				t.Errorf("chunk %d has capacity %d: a span was appended past its end", i, cap(c))
			}
		}
		if size != b.RetainedBytes() {
			t.Errorf("RetainedBytes %d, the chunks hold %d", b.RetainedBytes(), size)
		}
	})
}

package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"mira/internal/noc"
	"mira/internal/routing"
	"mira/internal/topology"
	"mira/internal/traffic"
)

func testConfig() noc.Config {
	return noc.Config{
		Topo: topology.NewMesh2D(4, 4, 3.1), Alg: routing.XY{},
		VCs: 2, BufDepth: 8, STLTCycles: 2, Layers: 4,
		Policy: noc.AnyFree, Seed: 42,
	}
}

// runObserved runs a short uniform-random simulation with a collector
// (and optional trace buffer) attached.
func runObserved(t *testing.T, cfg Config, buf *bytes.Buffer) (*Collector, noc.Result) {
	t.Helper()
	nc := testConfig()
	net := noc.NewNetwork(nc)
	c := New(net, cfg)
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
	return c, res
}

// TestReplayByteIdentical is the acceptance check for the trace format:
// a recorded JSONL trace, read back and replayed through the latency
// accumulator, must reproduce the live collector's per-flit statistics
// byte for byte.
func TestReplayByteIdentical(t *testing.T) {
	var buf bytes.Buffer
	c, _ := runObserved(t, Config{}, &buf)

	events, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	if int64(len(events)) != c.tw.Written() {
		t.Fatalf("read %d events, writer reports %d", len(events), c.tw.Written())
	}
	replayed, err := Replay(&buf)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	live := c.Latency()
	if lb, rb := live.JSON(), replayed.Latency.JSON(); !bytes.Equal(lb, rb) {
		t.Errorf("replayed stats differ from live:\nlive   %s\nreplay %s", lb, rb)
	}
	if got, want := fmt.Sprint(replayed.Events), fmt.Sprint(c.Summary().Events); got != want {
		t.Errorf("replayed event counts %s, live %s", got, want)
	}
	if live.Flits == 0 || live.Packets == 0 {
		t.Errorf("no latency samples collected: %s", live.JSON())
	}
	if live.FlitP50 > live.FlitP95 || live.FlitP95 > live.FlitP99 {
		t.Errorf("percentiles not monotonic: %s", live.JSON())
	}
}

// TestDerivedLinkEvents: the network emits no link event; the live
// collector counts one per grant onto a network port — the routers' link
// traversals — and writes a line for each, so Replay counts as many.
func TestDerivedLinkEvents(t *testing.T) {
	var buf bytes.Buffer
	c, _ := runObserved(t, Config{}, &buf)
	replayed, err := Replay(&buf)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	live, traversals := c.Summary().Events["link"], c.net.TotalCounters().LinkFlits
	if live == 0 || live != traversals || replayed.Events["link"] != live {
		t.Errorf("link events: live %d, replayed %d, link traversals %d", live, replayed.Events["link"], traversals)
	}
}

// TestTraceDeterministicAcrossRuns: two runs of the same scenario write
// byte-identical trace files.
func TestTraceDeterministicAcrossRuns(t *testing.T) {
	var a, b bytes.Buffer
	runObserved(t, Config{}, &a)
	runObserved(t, Config{}, &b)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("same scenario produced different traces")
	}
	if a.Len() == 0 {
		t.Error("empty trace")
	}
}

// TestCollectorCountsMatchResult cross-checks collector event counts
// against the simulation's own accounting.
func TestCollectorCountsMatchResult(t *testing.T) {
	c, res := runObserved(t, Config{}, nil)
	// Fully drained run: every injected flit ejects.
	if in, out := c.counts[noc.ProbeInject], c.counts[noc.ProbeEject]; in != out {
		t.Errorf("inject %d != eject %d", in, out)
	}
	lat := c.Latency()
	// The collector sees warm-up and unmeasured packets too, so it can
	// only have more packets than the measured result, never fewer.
	if lat.Packets < res.Ejected {
		t.Errorf("collector packets %d < measured ejected %d", lat.Packets, res.Ejected)
	}
	sum := c.Summary()
	if sum.Events["inject"] != c.counts[noc.ProbeInject] {
		t.Errorf("summary events mismatch")
	}
	if sum.Windows != c.Sampler().Samples() {
		t.Errorf("summary windows mismatch")
	}
	data, err := json.Marshal(sum)
	if err != nil || len(data) == 0 {
		t.Errorf("summary not serializable: %v", err)
	}
}

// TestSamplerSeries verifies window boundaries, series lengths, and the
// table export.
func TestSamplerSeries(t *testing.T) {
	c, _ := runObserved(t, Config{Window: 100, PerVCNodes: []int{5}}, nil)
	s := c.Sampler()
	if s.Window() != 100 {
		t.Fatalf("window = %d, want 100", s.Window())
	}
	if s.Samples() < 6 {
		t.Fatalf("only %d samples for a >=600-cycle run with window 100", s.Samples())
	}
	tbl := c.SeriesTable()
	if tbl.Header[0] != "cycle" || tbl.Header[len(tbl.Header)-1] != "partial" ||
		len(tbl.Header) != c.Registry().Len()+2 {
		t.Fatalf("table header wrong: %v", tbl.Header)
	}
	if len(tbl.Rows) != s.Samples() {
		t.Fatalf("table rows %d != samples %d", len(tbl.Rows), s.Samples())
	}
	if !slices.Contains(tbl.Header, "r5.p0.vc1.occ") {
		t.Error("per-VC series for node 5 missing")
	}
	li := slices.Index(tbl.Header, "net.link_flits")
	// Link-flit deltas over all windows cannot exceed the counter total
	// (each window's count is below 10^4, so %.4g prints it exactly).
	var links float64
	for _, row := range tbl.Rows {
		v, err := strconv.ParseFloat(row[li], 64)
		if err != nil {
			t.Fatal(err)
		}
		links += v
	}
	if links == 0 || int64(links) > c.counts[noc.ProbeLink] {
		t.Errorf("windowed link flits %v, want in (0, %d]", links, c.counts[noc.ProbeLink])
	}
	if !strings.Contains(tbl.String(), "net.occ") {
		t.Error("table text missing metric column")
	}
}

// TestTraceFilters: node and class filters restrict the trace without
// touching the collector's own statistics.
func TestTraceFilters(t *testing.T) {
	var full, filtered bytes.Buffer
	cFull, _ := runObserved(t, Config{}, &full)
	cFilt, _ := runObserved(t, Config{TraceNodes: []int{0, 1}, TraceClass: "data"}, &filtered)

	if !bytes.Equal(cFull.Latency().JSON(), cFilt.Latency().JSON()) {
		t.Error("trace filter changed collector statistics")
	}
	events, err := ReadTrace(bytes.NewReader(filtered.Bytes()))
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("filter removed everything")
	}
	fullEvents, _ := ReadTrace(&full)
	if len(events) >= len(fullEvents) {
		t.Error("filter did not shrink the trace")
	}
	for _, e := range events {
		if e.Router != 0 && e.Router != 1 {
			t.Fatalf("event at router %d escaped node filter", e.Router)
		}
		if e.Class != noc.Data {
			t.Fatalf("class %v escaped class filter", e.Class)
		}
	}
	// A node-filtered trace is partial per flit: Replay reports the
	// protocol violation next to the stats of the matched pairs.
	sum, err := Replay(&filtered)
	if !errors.Is(err, ErrFlitProtocol) {
		t.Errorf("Replay of a node-filtered (partial) trace: err = %v, want ErrFlitProtocol", err)
	}
	if got, all := sum.Latency.Flits, cFull.Latency().Flits; got >= all || sum.Events["eject"] == 0 {
		t.Errorf("Replay matched %d flits of %d, counted %v", got, all, sum.Events)
	}
}

// TestRegistryDuplicatePanics guards the metric namespace.
func TestRegistryDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate metric registration did not panic")
		}
	}()
	r := NewRegistry()
	r.Gauge("x", func() float64 { return 0 })
	r.Gauge("x", func() float64 { return 0 })
}

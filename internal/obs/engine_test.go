package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"mira/internal/noc"
	"mira/internal/stats"
	"mira/internal/traffic"
)

// engineArtifacts are the byte-compared outputs of one observed run.
type engineArtifacts struct {
	trace, series, attrib, perfetto, result string
}

// runEngineArtifacts runs a short observed simulation and renders every
// deterministic artifact: the flit trace, the sampled series CSV, the
// attribution CSV, the Perfetto span export and the result JSON.
func runEngineArtifacts(t *testing.T, shards int, mode noc.StepMode, engine bool, measure int64) engineArtifacts {
	t.Helper()
	nc := testConfig()
	nc.Shards = shards
	nc.Mode = mode
	net := noc.NewNetwork(nc)
	c := New(net, Config{Window: 100, Spans: true, Engine: engine})
	var buf bytes.Buffer
	c.SetTraceWriter(&buf)
	sim := noc.NewSim(net, &traffic.Uniform{Topo: nc.Topo, InjectionRate: 0.1, PacketSize: 4})
	sim.Params = noc.SimParams{Warmup: 0, Measure: measure, DrainMax: 3000}
	c.Attach(sim)
	res := sim.Run(context.Background())
	if err := c.Close(); err != nil {
		t.Fatalf("collector close: %v", err)
	}
	if res.Ejected == 0 {
		t.Fatal("no traffic simulated; comparison is vacuous")
	}
	if engine {
		ec := c.Engine()
		if ec == nil {
			t.Fatal("Config.Engine set but no engine collector attached")
		}
		if snap := ec.meter.Snapshot(); snap.Cycles == 0 {
			t.Fatal("engine meter observed no cycles")
		}
	} else if c.Engine() != nil {
		t.Fatal("engine collector attached without Config.Engine")
	}
	var pf bytes.Buffer
	if err := WriteTraceDoc(&pf, PerfettoDoc(c.Spans().Spans())); err != nil {
		t.Fatalf("WriteTraceDoc: %v", err)
	}
	resJSON, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return engineArtifacts{
		trace:    buf.String(),
		series:   withoutEngineColumns(c.Sampler().Table()).CSV(),
		attrib:   c.Spans().Attribution().CombinedTable().CSV(),
		perfetto: pf.String(),
		result:   string(resJSON),
	}
}

// withoutEngineColumns drops the engine.* columns, the host wall-clock
// part of a series, keeping the simulated part.
func withoutEngineColumns(t stats.Table) stats.Table {
	keep := func(row []string) []string {
		var out []string
		for i, cell := range row {
			if !strings.HasPrefix(t.Header[i], "engine.") {
				out = append(out, cell)
			}
		}
		return out
	}
	out := stats.Table{Title: t.Title, Header: keep(t.Header)}
	for _, row := range t.Rows {
		out.Rows = append(out.Rows, keep(row))
	}
	return out
}

// TestEngineTelemetryPurity is the out-of-band determinism suite:
// every simulated artifact — ejection-derived results, the series CSV
// without its engine.* columns, flit traces, span attribution and the
// Perfetto export — must be byte-identical with engine telemetry
// attached vs detached, across shard counts {1, 4, -1 (auto)} and step
// modes.
func TestEngineTelemetryPurity(t *testing.T) {
	modes := []noc.StepMode{noc.StepActivity, noc.StepChecked}
	for _, mode := range modes {
		measure := int64(600)
		if mode == noc.StepChecked {
			measure = 300 // invariant suite per cycle is expensive
		}
		for _, shards := range []int{1, 4, noc.AutoShards} {
			t.Run(fmt.Sprintf("mode%v/shards%d", mode, shards), func(t *testing.T) {
				off := runEngineArtifacts(t, shards, mode, false, measure)
				on := runEngineArtifacts(t, shards, mode, true, measure)
				if on.trace != off.trace {
					t.Error("flit trace diverges with engine telemetry attached")
				}
				if on.series != off.series {
					t.Error("series CSV diverges with engine telemetry attached")
				}
				if on.attrib != off.attrib {
					t.Error("attribution CSV diverges with engine telemetry attached")
				}
				if on.perfetto != off.perfetto {
					t.Error("perfetto JSON diverges with engine telemetry attached")
				}
				if on.result != off.result {
					t.Errorf("result JSON diverges with engine telemetry attached:\non  %s\noff %s", on.result, off.result)
				}
			})
		}
	}
}

// TestEngineProgressHook checks the global progress hook and the
// throttle in front of it: OnCycle offers an update only every
// noc.CancelCheckStride cycles, an update lands only once
// DefaultEngineInterval has passed since the previous one (driven here
// with synthetic times), and Close always takes the last one, with real
// cycle progress and the run's shard count. Cleared, the hook stops
// firing.
func TestEngineProgressHook(t *testing.T) {
	var mu sync.Mutex
	var got []EngineProgress
	fired := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(got)
	}
	SetEngineProgressHook(func(p EngineProgress) {
		mu.Lock()
		got = append(got, p)
		mu.Unlock()
	})
	defer SetEngineProgressHook(nil)

	nc := testConfig()
	nc.Shards = 4
	net := noc.NewNetwork(nc)
	c := New(net, Config{Engine: true, EngineLabel: "hooked"})
	sim := noc.NewSim(net, &traffic.Uniform{Topo: nc.Topo, InjectionRate: 0.1, PacketSize: 4})
	sim.Params = noc.SimParams{Warmup: 0, Measure: 600, DrainMax: 3000}
	c.Attach(sim)
	ec := c.Engine()

	ec.mu.Lock()
	t0 := ec.lastWall
	ec.mu.Unlock()
	if ec.update(t0.Add(DefaultEngineInterval/2), false); fired() != 0 {
		t.Fatal("update fired before DefaultEngineInterval passed")
	}
	if ec.update(t0.Add(DefaultEngineInterval), false); fired() != 1 {
		t.Fatal("update did not fire once DefaultEngineInterval passed")
	}
	ec.mu.Lock()
	ec.lastWall = time.Now().Add(-time.Hour)
	ec.mu.Unlock()
	if c.OnCycle(noc.CancelCheckStride + 1); fired() != 1 {
		t.Fatal("OnCycle updated off the stride")
	}
	if c.OnCycle(2 * noc.CancelCheckStride); fired() != 2 {
		t.Fatal("OnCycle did not update on the stride")
	}

	sim.Run(context.Background())
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if fired() < 3 {
		t.Fatal("Close took no final update")
	}
	last := got[len(got)-1]
	if last.Cycle == 0 || last.Shards != 4 || last.Label != "hooked" {
		t.Fatalf("bad final progress: %+v", last)
	}
	if s := last.String(); !strings.Contains(s, "cyc/s") {
		t.Fatalf("progress line %q missing rate", s)
	}
	if last.Target != 600 {
		t.Fatalf("target %d, want warmup+measure=600", last.Target)
	}
	SetEngineProgressHook(nil)
	if ec.update(time.Now().Add(time.Hour), false); fired() != len(got) {
		t.Fatal("cleared hook still fired")
	}
}

// TestEngineTableAndSeries checks the end-of-run surfaces: the
// stats.Table summary has one row per shard plus the pool/mailbox/
// runtime notes; the engine.* series columns are per-window deltas that
// sum to the meter's totals (and the wall column to at most the run's
// wall time); and the Perfetto counter tracks derive from them.
func TestEngineTableAndSeries(t *testing.T) {
	start := time.Now()
	nc := testConfig()
	nc.Shards = 4
	net := noc.NewNetwork(nc)
	c := New(net, Config{Window: 100, Engine: true, EngineLabel: "tbl"})
	sim := noc.NewSim(net, &traffic.Uniform{Topo: nc.Topo, InjectionRate: 0.15, PacketSize: 4})
	sim.Params = noc.SimParams{Warmup: 0, Measure: 1500, DrainMax: 3000}
	c.Attach(sim)
	sim.Run(context.Background())
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	ec := c.Engine()

	tbl := ec.Table()
	if tbl.Title != "engine telemetry" {
		t.Fatalf("table title %q", tbl.Title)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("table has %d rows, want 4 shards", len(tbl.Rows))
	}
	notes := strings.Join(tbl.Notes, "\n")
	for _, want := range []string{"ring_words=", "pool: 4 workers", " parks", "mailbox:", "runtime:", "simulated results are unaffected"} {
		if !strings.Contains(notes, want) {
			t.Errorf("table notes missing %q:\n%s", want, notes)
		}
	}

	snap := ec.meter.Snapshot()
	want := map[string]float64{"engine.wall_ns": -1, "engine.step_ns": float64(snap.StepNs)}
	for _, sh := range snap.Shards {
		want[fmt.Sprintf("engine.shard%d.busy_ns", sh.Shard)] = float64(sh.BusyNs)
		want[fmt.Sprintf("engine.shard%d.drain_ns", sh.Shard)] = float64(sh.DrainNs)
		want[fmt.Sprintf("engine.shard%d.barrier_ns", sh.Shard)] = float64(sh.BarrierNs)
	}
	s := c.Sampler()
	if s.Samples() < 3 {
		t.Fatalf("%d samples, want several windows", s.Samples())
	}
	for name, total := range want {
		i, ok := c.Registry().byName[name]
		if !ok {
			t.Fatalf("series has no %s column", name)
		}
		var sum float64
		for _, row := range s.rows {
			if row[i] < 0 {
				t.Fatalf("%s went negative: %v", name, row[i])
			}
			sum += row[i]
		}
		if total < 0 { // the wall column: positive, within the run's wall time
			if sum <= 0 || sum > float64(elapsed) {
				t.Errorf("%s sums to %v ns over a %v run", name, sum, elapsed)
			}
		} else if sum != total {
			t.Errorf("%s sums to %v over the series, meter total %v", name, sum, total)
		}
	}

	evs, err := EngineTrackEvents(strings.NewReader(s.Table().CSV()))
	if err != nil {
		t.Fatal(err)
	}
	counters := map[string]int{}
	for _, ev := range evs {
		switch ev.Phase {
		case "M":
		case "C":
			counters[ev.Name]++
			if ev.PID != enginePID {
				t.Fatalf("counter event on pid %d, want engine pid", ev.PID)
			}
		default:
			t.Fatalf("unexpected phase %q in engine track", ev.Phase)
		}
	}
	for _, track := range []string{"shard busy us/cycle", "cycles/sec", "shard imbalance"} {
		if counters[track] == 0 {
			t.Errorf("engine track has no %q counter events", track)
		}
	}
	if _, err := EngineTrackEvents(strings.NewReader(withoutEngineColumns(s.Table()).CSV())); err == nil {
		t.Error("a series without engine.* columns rendered engine tracks")
	}

	// The liveness timestamp advanced past collector start.
	if ec.LastProgress().IsZero() {
		t.Fatal("LastProgress unset")
	}
}

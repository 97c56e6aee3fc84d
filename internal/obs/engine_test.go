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
	cfg := Config{Window: 100, Spans: true}
	if engine {
		cfg.Engine = true
		cfg.EngineInterval = 2 * time.Millisecond // force many ticks even on short runs
	}
	c := New(net, cfg)
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
		if snap := ec.Snapshot(); snap.Cycles == 0 {
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
		series:   c.SeriesTable().CSV(),
		attrib:   c.Spans().Attribution().CombinedTable().CSV(),
		perfetto: pf.String(),
		result:   string(resJSON),
	}
}

// TestEngineTelemetryPurity is the out-of-band determinism suite:
// every simulated artifact — ejection-derived results, series tables,
// flit traces, span attribution and the Perfetto export — must be
// byte-identical with engine telemetry attached vs detached, across
// shard counts {1, 4, -1 (auto)} and step modes. The engine ticker
// races the simulation on purpose (2ms interval); under -race this also
// proves the sampling path is data-race free.
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

// TestEngineProgressHook checks the global progress hook: installed, it
// receives at least the final (Close-time) sample with real cycle
// progress and the run's shard count; cleared, it stops firing.
func TestEngineProgressHook(t *testing.T) {
	var mu sync.Mutex
	var got []EngineProgress
	SetEngineProgressHook(func(p EngineProgress) {
		mu.Lock()
		got = append(got, p)
		mu.Unlock()
	})
	defer SetEngineProgressHook(nil)

	nc := testConfig()
	nc.Shards = 4
	net := noc.NewNetwork(nc)
	c := New(net, Config{Engine: true, EngineInterval: 5 * time.Millisecond, EngineLabel: "hooked"})
	sim := noc.NewSim(net, &traffic.Uniform{Topo: nc.Topo, InjectionRate: 0.1, PacketSize: 4})
	sim.Params = noc.SimParams{Warmup: 0, Measure: 600, DrainMax: 3000}
	c.Attach(sim)
	sim.Run(context.Background())
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(got) == 0 {
		t.Fatal("progress hook never fired")
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
}

// TestEngineTableAndSeries checks the end-of-run surfaces: the
// stats.Table summary has one row per shard plus the pool/mailbox/
// runtime notes, and the JSON series round-trips through
// ReadEngineSeries with Perfetto counter events derivable from it.
func TestEngineTableAndSeries(t *testing.T) {
	nc := testConfig()
	nc.Shards = 4
	net := noc.NewNetwork(nc)
	c := New(net, Config{Engine: true, EngineInterval: 2 * time.Millisecond, EngineLabel: "tbl"})
	sim := noc.NewSim(net, &traffic.Uniform{Topo: nc.Topo, InjectionRate: 0.15, PacketSize: 4})
	sim.Params = noc.SimParams{Warmup: 0, Measure: 1500, DrainMax: 3000}
	c.Attach(sim)
	sim.Run(context.Background())
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
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

	var buf bytes.Buffer
	if err := ec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	es, err := ReadEngineSeries(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if es.Shards != 4 || es.Label != "tbl" || len(es.Windows) == 0 {
		t.Fatalf("series round-trip lost data: shards=%d label=%q windows=%d", es.Shards, es.Label, len(es.Windows))
	}
	if es.Snapshot.Cycles == 0 {
		t.Fatal("series snapshot has no cycles")
	}
	evs := EngineTrackEvents(es)
	if len(evs) == 0 {
		t.Fatal("no engine track events")
	}
	counters := 0
	for _, ev := range evs {
		switch ev.Phase {
		case "M":
		case "C":
			counters++
			if ev.PID != enginePID {
				t.Fatalf("counter event on pid %d, want engine pid", ev.PID)
			}
		default:
			t.Fatalf("unexpected phase %q in engine track", ev.Phase)
		}
	}
	if counters == 0 {
		t.Fatal("engine track has no counter events")
	}

	// The liveness timestamp advanced past collector start.
	if ec.LastProgress().IsZero() {
		t.Fatal("LastProgress unset")
	}
}

// TestCompactWindows checks the series-bounding merge: deltas sum,
// point-in-time fields keep the later window, odd tails survive.
func TestCompactWindows(t *testing.T) {
	in := make([]EngineWindow, 5)
	for i := range in {
		in[i] = EngineWindow{
			Cycle:       int64(i+1) * 100,
			Cycles:      10,
			Rate:        float64(i),
			ShardBusyNs: []int64{int64(i), int64(i) * 2},
		}
	}
	out := compactWindows(in)
	if len(out) != 3 {
		t.Fatalf("compacted to %d windows, want 3", len(out))
	}
	var cycles int64
	for _, w := range out {
		cycles += w.Cycles
	}
	if cycles != 50 {
		t.Fatalf("compaction lost cycles: %d != 50", cycles)
	}
	if out[0].Cycle != 200 || out[0].ShardBusyNs[0] != 1 {
		t.Fatalf("first merged window wrong: %+v", out[0])
	}
	if out[2].Cycle != 500 {
		t.Fatalf("odd tail lost: %+v", out[2])
	}
}

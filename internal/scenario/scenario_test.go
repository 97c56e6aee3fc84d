package scenario

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mira/internal/noc"
)

// full returns a scenario exercising every serializable field.
func full() Scenario {
	return Scenario{
		Arch: "3DM",
		Traffic: Traffic{
			Kind: "hotspot", Rate: 0.2, ShortFrac: 0.25, HotFrac: 0.5,
		},
		Warmup: 100, Measure: 500, Drain: 1000, Seed: 7,
		StepMode: "checked",
		VCs:      4, BufDepth: 4, STLTCycles: 2,
		LookaheadRC: true, SpecSA: true, QoSPriority: true,
		Routing: "westfirst",
		Faults:  []Fault{{Src: 2, Dir: "east"}},
	}
}

// ur returns a minimal valid uniform-random scenario.
func ur() Scenario {
	return Scenario{
		Arch:    "2DB",
		Traffic: Traffic{Kind: "ur", Rate: 0.1},
		Warmup:  50, Measure: 200, Drain: 1000, Seed: 42,
	}
}

func TestJSONRoundTrip(t *testing.T) {
	for _, sc := range []Scenario{full(), ur()} {
		if err := sc.Validate(); err != nil {
			t.Fatalf("fixture invalid: %v", err)
		}
		data, err := sc.MarshalIndent()
		if err != nil {
			t.Fatal(err)
		}
		back, err := Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sc, back) {
			t.Errorf("round trip changed the scenario:\nbefore %+v\nafter  %+v", sc, back)
		}
	}
}

func TestJSONOmitsDefaults(t *testing.T) {
	data, err := ur().MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"vcs", "stlt_cycles", "express_interval", "routing", "faults", "step_mode"} {
		if strings.Contains(string(data), `"`+field+`"`) {
			t.Errorf("minimal scenario JSON should omit default field %q:\n%s", field, data)
		}
	}
}

// TestDecodeStrict: a misspelled or retired key, at the top level or
// nested, and trailing data fail naming the problem, in Decode and
// DecodeBatch alike, instead of running with the field at its default.
func TestDecodeStrict(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{`{"arch": "2DB", "shard": 4}`, `unknown field "shard"`},
		{`{"arch": "2DB", "traffic": {"kind": "ur", "rat": 0.1}}`, `unknown field "rat"`},
		{`{"arch": "2DB", "matrix_arb": true}`, `unknown field "matrix_arb"`},
		{`{"arch": "2DB", "traffic": {"kind": "nuca", "bank_delay": 24}}`, `unknown field "bank_delay"`},
		{`{"arch": "2DB", "traffic": {"kind": "hotspot", "hot": [14]}}`, `unknown field "hot"`},
		{`{"arch": "2DB", "chips": {"chips_x": 2, "express_latency": 6}}`, `unknown field "express_latency"`},
	} {
		if _, err := Decode([]byte(c.in)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Decode(%s) err = %v, want %q", c.in, err, c.want)
		}
		for _, in := range []string{c.in, `[{"arch": "3DM"}, ` + c.in + "]"} {
			if _, err := DecodeBatch(strings.NewReader(in)); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("DecodeBatch(%s) err = %v, want %q", in, err, c.want)
			}
		}
	}
	if _, err := Decode([]byte(`{"arch": "2DB"} {"arch": "3DM"}`)); err == nil || !strings.Contains(err.Error(), "trailing data") {
		t.Errorf("Decode of two objects err = %v", err)
	}
	if _, err := DecodeBatch(strings.NewReader(`[{"arch": "2DB"}] [{"arch": "3DM"}]`)); err == nil || !strings.Contains(err.Error(), "trailing data") {
		t.Errorf("DecodeBatch of two arrays err = %v", err)
	}
}

// TestCommittedScenariosDecode: every scenario JSON committed in the
// repository still decodes under the strict decoder.
func TestCommittedScenariosDecode(t *testing.T) {
	files, err := filepath.Glob("../../bench/workloads/*.json")
	if err != nil {
		t.Fatal(err)
	}
	golden, _ := filepath.Glob("../obs/testdata/*.json")
	files = append(files, golden...)
	if len(files) < 8 {
		t.Fatalf("found only %d committed scenarios: %v", len(files), files)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := Decode(data)
		if err != nil {
			t.Errorf("%s: %v", f, err)
		} else if err := sc.Validate(); err != nil {
			t.Errorf("%s: %v", f, err)
		}
	}
}

func TestSet(t *testing.T) {
	sc, err := ur().Set("chips.d2d_ser_cycles", "4")
	if err != nil {
		t.Fatal(err)
	}
	if sc.Chips == nil || sc.Chips.D2DSerCycles != 4 {
		t.Errorf("set under an absent object: chips = %+v", sc.Chips)
	}
	if sc, err = sc.Set("arch", "3DM-E"); err != nil || sc.Arch != "3DM-E" {
		t.Errorf("bare string value: arch %q, err %v", sc.Arch, err)
	}
	// encoding/json matches keys case-insensitively, so an edit spelled
	// "Arch" must replace "arch", not sit beside it and lose.
	if sc, err = sc.Set("Arch", "2DB"); err != nil || sc.Arch != "2DB" {
		t.Errorf("Arch: arch %q, err %v", sc.Arch, err)
	}
	if sc, err = sc.Set("Traffic.Rate", "0.3"); err != nil || sc.Traffic.Rate != 0.3 {
		t.Errorf("Traffic.Rate: rate %v, err %v", sc.Traffic.Rate, err)
	}
	if sc, err = sc.Set("seed", "9007199254740993"); err != nil || sc.Seed != 9007199254740993 {
		t.Errorf("a seed above 2^53 changed on its way through: %d, err %v", sc.Seed, err)
	}
	if sc, err = sc.Set("traffic", `{"kind":"nuca","rate":0.2}`); err != nil || !reflect.DeepEqual(sc.Traffic, Traffic{Kind: "nuca", Rate: 0.2}) {
		t.Errorf("object value: traffic %+v, err %v", sc.Traffic, err)
	}
	if sc, err = sc.Set("chips", "null"); err != nil || sc.Chips != nil {
		t.Errorf("null value: chips %+v, err %v", sc.Chips, err)
	}
	for _, c := range []struct{ key, value, want string }{
		{"shard", "4", `unknown field "shard"`},
		{"traffic.rat", "0.1", `unknown field "rat"`},
		{"traffic.rate", "fast", "traffic.rate"},
		{"arch.x", "1", "arch is not an object"},
	} {
		if _, err := sc.Set(c.key, c.value); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Set(%s, %s) err = %v, want %q", c.key, c.value, err, c.want)
		}
	}
}

// TestEdits: -set edits apply in command-line order, later ones win, and
// a malformed, unknown or mistyped edit is rejected when it is set.
func TestEdits(t *testing.T) {
	var e Edits
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.Var(&e, "set", "")
	if err := fs.Parse([]string{"-set", "shards=2", "-set", "observe.window=500", "-set", "shards=-1"}); err != nil {
		t.Fatal(err)
	}
	if e.String() != "shards=2 observe.window=500 shards=-1" {
		t.Errorf("String() = %q", e.String())
	}
	sc, err := e.Apply(ur())
	if err != nil || sc.Shards != -1 || sc.Observe == nil || sc.Observe.Window != 500 {
		t.Errorf("Apply = %+v, %v", sc, err)
	}
	for kv, want := range map[string]string{
		"warmup":          `"warmup" is not key=value`,
		"shard=4":         `unknown field "shard"`,
		"observe=1":       "observe",
		"traffic.rate=up": "traffic.rate",
	} {
		if err := e.Set(kv); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Set(%s) = %v, want an error naming %q", kv, err, want)
		}
	}
	if len(e) != 3 {
		t.Errorf("rejected edits were kept: %q", e)
	}
}

func TestValidateRejections(t *testing.T) {
	mod := func(f func(*Scenario)) Scenario {
		sc := ur()
		f(&sc)
		return sc
	}
	cases := []struct {
		name string
		sc   Scenario
		want string // substring of the error
	}{
		{"unknown arch", mod(func(s *Scenario) { s.Arch = "4DX" }), "unknown architecture"},
		{"zero measure", mod(func(s *Scenario) { s.Measure = 0 }), "measure"},
		{"negative warmup", mod(func(s *Scenario) { s.Warmup = -1 }), "warmup"},
		{"bad step mode", mod(func(s *Scenario) { s.StepMode = "warp" }), "step mode"},
		{"retired step mode", mod(func(s *Scenario) { s.StepMode = "fullscan" }), `use "checked" to debug`},
		{"negative vcs", mod(func(s *Scenario) { s.VCs = -2 }), "buffer geometry"},
		{"stlt out of range", mod(func(s *Scenario) { s.STLTCycles = 3 }), "stlt_cycles"},
		{"express on non-express arch", mod(func(s *Scenario) { s.ExpressInterval = 2 }), "3DM-E"},
		{"express interval too small", mod(func(s *Scenario) { s.Arch = "3DM-E"; s.ExpressInterval = 1 }), "express_interval"},
		{"unknown routing", mod(func(s *Scenario) { s.Routing = "adaptive" }), "routing"},
		{"faults without westfirst", mod(func(s *Scenario) { s.Faults = []Fault{{Src: 0, Dir: "east"}} }), "westfirst"},
		{"bad fault dir", mod(func(s *Scenario) { s.Routing = "westfirst"; s.Faults = []Fault{{Src: 0, Dir: "sideways"}} }), "direction"},
		{"negative fault src", mod(func(s *Scenario) { s.Routing = "westfirst"; s.Faults = []Fault{{Src: -1, Dir: "east"}} }), "negative"},
		{"unknown traffic kind", mod(func(s *Scenario) { s.Traffic.Kind = "bursty" }), "unknown traffic kind"},
		{"empty traffic kind", mod(func(s *Scenario) { s.Traffic.Kind = "" }), "unknown traffic kind"},
		{"ur zero rate", mod(func(s *Scenario) { s.Traffic.Rate = 0 }), "rate"},
		{"short frac above one", mod(func(s *Scenario) { s.Traffic.ShortFrac = 1.5 }), "short_frac"},
		{"hotspot zero hot frac", mod(func(s *Scenario) { s.Traffic = Traffic{Kind: "hotspot", Rate: 0.1} }), "hot_frac"},
		{"trace unknown workload", mod(func(s *Scenario) {
			s.Traffic = Traffic{Kind: "trace", Workload: "nosuch", TraceCycles: 100}
		}), "workload"},
		{"trace zero cycles", mod(func(s *Scenario) {
			s.Traffic = Traffic{Kind: "trace", Workload: "tpcw"}
		}), "trace_cycles"},
		{"trace bad protocol", mod(func(s *Scenario) {
			s.Traffic = Traffic{Kind: "trace", Workload: "tpcw", TraceCycles: 100, Protocol: "dragon"}
		}), "protocol"},
		{"replay without file", mod(func(s *Scenario) { s.Traffic = Traffic{Kind: "replay"} }), "trace_file"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.sc.Validate()
			if err == nil {
				t.Fatalf("Validate accepted %+v", c.sc)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
			// An invalid scenario must not elaborate either.
			if _, err := c.sc.Elaborate(); err == nil {
				t.Errorf("Elaborate accepted a scenario Validate rejects")
			}
		})
	}
}

func TestValidateAccepts(t *testing.T) {
	cases := []Scenario{
		ur(),
		full(),
		{Arch: "3DM-E", Traffic: Traffic{Kind: "ur", Rate: 0.1}, Measure: 100, ExpressInterval: 3},
		{Arch: "2DB", Traffic: Traffic{Kind: "trace", Workload: "tpcw", TraceCycles: 500, Protocol: "moesi"}, Measure: 100},
		{Arch: "3DB", Traffic: Traffic{Kind: "tornado", Rate: 0.05}, Measure: 100, Routing: "xy"},
	}
	for _, sc := range cases {
		if err := sc.Validate(); err != nil {
			t.Errorf("Validate rejected %+v: %v", sc, err)
		}
	}
}

// TestElaborateBuildErrors covers parameters only checkable against the
// elaborated topology.
func TestElaborateBuildErrors(t *testing.T) {
	sc := ur()
	sc.Traffic = Traffic{Kind: "replay", TraceFile: "testdata/does-not-exist.trace"}
	if _, err := sc.Elaborate(); err == nil {
		t.Error("missing trace file not rejected")
	}
	sc = ur()
	sc.Routing = "westfirst"
	sc.Faults = []Fault{{Src: 999, Dir: "east"}}
	if _, err := sc.Elaborate(); err == nil || !strings.Contains(err.Error(), "outside") {
		t.Errorf("out-of-range fault source not rejected: %v", err)
	}
}

// TestNoCConfigOverrides checks every router-level knob reaches the
// simulator configuration.
func TestNoCConfigOverrides(t *testing.T) {
	sc := full()
	d, cfg, err := sc.NoCConfig()
	if err != nil {
		t.Fatal(err)
	}
	if d == nil || cfg.Topo == nil {
		t.Fatal("missing design or topology")
	}
	if cfg.VCs != 4 || cfg.BufDepth != 4 {
		t.Errorf("buffer geometry not applied: VCs=%d depth=%d", cfg.VCs, cfg.BufDepth)
	}
	if cfg.STLTCycles != 2 {
		t.Errorf("STLTCycles = %d, want 2", cfg.STLTCycles)
	}
	if !cfg.LookaheadRC || !cfg.SpecSA || !cfg.QoSPriority {
		t.Error("pipeline options not applied")
	}
	if cfg.Mode != noc.StepChecked {
		t.Errorf("step mode = %v, want checked", cfg.Mode)
	}
	if cfg.Seed != 7 {
		t.Errorf("seed = %d, want 7", cfg.Seed)
	}
}

// TestElaborateDeterminism: equal scenarios produce bit-identical
// results, and the seed actually matters.
func TestElaborateDeterminism(t *testing.T) {
	run := func(seed int64) noc.Result {
		sc := ur()
		sc.Seed = seed
		e, err := sc.Elaborate()
		if err != nil {
			t.Fatal(err)
		}
		out, err := e.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return out.Result
	}
	a, b := run(42), run(42)
	// The histogram pointer differs; compare the serialized form.
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if string(aj) != string(bj) {
		t.Errorf("equal scenarios diverged:\n%s\n%s", aj, bj)
	}
	c := run(43)
	cj, _ := json.Marshal(c)
	if string(aj) == string(cj) {
		t.Error("different seeds produced identical results")
	}
}

// failWriter is a trace sink whose every write fails.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

// TestElaborationRun: the one run sequence closes an observed run's
// collector and hands back its error with the result, takes the
// collective report, and leaves Obs nil when nothing observes.
func TestElaborationRun(t *testing.T) {
	run := func(sc Scenario, traced bool) (Outcome, error) {
		e, err := sc.Elaborate()
		if err != nil {
			t.Fatal(err)
		}
		if traced {
			e.Obs.SetTraceWriter(failWriter{})
		}
		return e.Run(context.Background())
	}
	observed := ur()
	observed.Observe = &Observe{}
	out, err := run(observed, true)
	if err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Errorf("failing trace writer: err = %v, want the writer's error", err)
	}
	if out.Obs == nil || out.Result.Ejected == 0 || out.Result.Canceled {
		t.Errorf("failing trace writer lost the run: obs %v, result %v", out.Obs != nil, out.Result)
	}
	out, err = run(collectiveScenario("tree-broadcast", 2), false)
	if c := out.Collective; err != nil || c.Completed != 2 || c.Iteration.N != 2 || c.Messages.N != 14 {
		t.Errorf("collective outcome = %+v, %v; want 2 complete iterations of 7 messages", c, err)
	}
	if out, err = run(ur(), false); err != nil || out.Obs != nil || out.Result.Ejected == 0 {
		t.Errorf("unobserved run: obs %v, err %v, result %v", out.Obs != nil, err, out.Result)
	}
}

// TestTrafficKindsRegistered: an unknown kind's error lists the fixed
// table's kinds sorted, and each has both funcs.
func TestTrafficKindsRegistered(t *testing.T) {
	sc := ur()
	sc.Traffic.Kind = "bursty"
	want := "(known: collective, complement, hotspot, nuca, replay, tornado, trace, transpose, ur)"
	if err := sc.Validate(); err == nil || !strings.HasSuffix(err.Error(), want) {
		t.Errorf("unknown kind error = %v, want it to end %s", err, want)
	}
	for k, b := range builders {
		if b.Validate == nil || b.Build == nil {
			t.Errorf("kind %q lacks a Validate or Build func", k)
		}
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"mira/internal/scenario"
)

// mirasim is the command under test, built once by TestMain.
var mirasim string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "mirasim-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	mirasim = filepath.Join(dir, "mirasim")
	code := 1
	if out, err := exec.Command("go", "build", "-o", mirasim, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// run executes mirasim with args in an empty directory and returns its
// stdout, stderr and exit status.
func run(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(mirasim, args...)
	cmd.Dir = t.TempDir()
	var o, e bytes.Buffer
	cmd.Stdout, cmd.Stderr = &o, &e
	var exit *exec.ExitError
	if err := cmd.Run(); err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return o.String(), e.String(), cmd.ProcessState.ExitCode()
}

// defaultDump is what "mirasim -dump" prints.
const defaultDump = `{
  "arch": "3DM",
  "traffic": {
    "kind": "ur",
    "rate": 0.15
  },
  "warmup": 5000,
  "measure": 20000,
  "drain": 40000,
  "seed": 1,
  "step_mode": "activity"
}
`

// respelled holds one row per retired scenario flag and one per mirasim
// invocation in the CI workflow, README, EXPERIMENTS and the verify
// skill. old is the invocation as it was written with scenario flags,
// new the same run spelled with -set edits, and delta the JSON merge
// patch (RFC 7396: null deletes a key) that turns defaultDump into what
// "mirasim OLD -dump" printed before those flags were retired.
var respelled = []struct {
	name, old string
	new       []string
	delta     string
}{
	{"flag -arch", "-arch 3DM-E", []string{"-set", "arch=3DM-E"}, `{"arch":"3DM-E"}`},
	{"flag -traffic", "-traffic hotspot",
		[]string{"-set", `traffic={"kind":"hotspot","rate":0.15,"hot_frac":0.3}`},
		`{"traffic":{"kind":"hotspot","hot_frac":0.3}}`},
	{"flag -rate", "-rate 0.2", []string{"-set", "traffic.rate=0.2"}, `{"traffic":{"rate":0.2}}`},
	{"flag -short", "-short 0.5", []string{"-set", "traffic.short_frac=0.5"}, `{"traffic":{"short_frac":0.5}}`},
	{"flag -workload", "-traffic trace -workload barnes",
		[]string{"-set", `traffic={"kind":"trace","workload":"barnes","trace_cycles":20000}`},
		`{"traffic":{"kind":"trace","workload":"barnes","trace_cycles":20000,"rate":null}}`},
	{"flag -tracefile", "-traffic replay -tracefile t.trace",
		[]string{"-set", `traffic={"kind":"replay","trace_file":"t.trace"}`},
		`{"traffic":{"kind":"replay","trace_file":"t.trace","rate":null}}`},
	{"flag -hotfrac", "-traffic hotspot -hotfrac 0.5",
		[]string{"-set", `traffic={"kind":"hotspot","rate":0.15}`, "-set", "traffic.hot_frac=0.5"},
		`{"traffic":{"kind":"hotspot","hot_frac":0.5}}`},
	{"flag -algorithm", "-traffic collective -algorithm tree-broadcast",
		[]string{"-set", "warmup=0", "-set", `traffic={"kind":"collective","collective":{"algorithm":"ring-allreduce","iterations":1}}`, "-set", "traffic.collective.algorithm=tree-broadcast"},
		`{"traffic":{"kind":"collective","collective":{"algorithm":"tree-broadcast","iterations":1},"rate":null},"warmup":0}`},
	{"flag -ranks", "-traffic collective -ranks 16",
		[]string{"-set", "warmup=0", "-set", `traffic={"kind":"collective","collective":{"algorithm":"ring-allreduce","iterations":1}}`, "-set", "traffic.collective.participants=16"},
		`{"traffic":{"kind":"collective","collective":{"algorithm":"ring-allreduce","participants":16,"iterations":1},"rate":null},"warmup":0}`},
	{"flag -iters", "-traffic collective -iters 4",
		[]string{"-set", "warmup=0", "-set", `traffic={"kind":"collective","collective":{"algorithm":"ring-allreduce","iterations":1}}`, "-set", "traffic.collective.iterations=4"},
		`{"traffic":{"kind":"collective","collective":{"algorithm":"ring-allreduce","iterations":4},"rate":null},"warmup":0}`},
	{"flag -msgflits", "-traffic collective -msgflits 8",
		[]string{"-set", "warmup=0", "-set", `traffic={"kind":"collective","collective":{"algorithm":"ring-allreduce","iterations":1}}`, "-set", "traffic.collective.message_flits=8"},
		`{"traffic":{"kind":"collective","collective":{"algorithm":"ring-allreduce","message_flits":8,"iterations":1},"rate":null},"warmup":0}`},
	{"flag -warmup", "-warmup 500", []string{"-set", "warmup=500"}, `{"warmup":500}`},
	{"flag -measure", "-measure 1000", []string{"-set", "measure=1000", "-set", "drain=2000"}, `{"measure":1000,"drain":2000}`},
	{"flag -seed", "-seed 7", []string{"-set", "seed=7"}, `{"seed":7}`},
	{"flag -stepmode", "-stepmode checked", []string{"-set", "step_mode=checked"}, `{"step_mode":"checked"}`},
	{"flag -shards", "-shards 4", []string{"-set", "shards=4"}, `{"shards":4}`},
	{"flag -chips", "-chips 2x2/4x4+express",
		[]string{"-set", `chips={"chips_x":2,"chips_y":2,"nodes_x":4,"nodes_y":4,"express":true}`},
		`{"chips":{"chips_x":2,"chips_y":2,"nodes_x":4,"nodes_y":4,"express":true}}`},
	{"flag -d2d", "-chips 2x2/4x4 -d2d 8:4",
		[]string{"-set", "chips.chips_x=2", "-set", "chips.chips_y=2", "-set", "chips.nodes_x=4", "-set", "chips.nodes_y=4", "-set", "chips.d2d_latency=8", "-set", "chips.d2d_ser_cycles=4"},
		`{"chips":{"chips_x":2,"chips_y":2,"nodes_x":4,"nodes_y":4,"d2d_latency":8,"d2d_ser_cycles":4}}`},
	{"flag -shutdown", "-shutdown", []string{}, `{}`},
	{"flag -qos", "-qos", []string{"-set", "qos_priority=true"}, `{"qos_priority":true}`},
	{"flag -spec", "-spec", []string{"-set", "spec_sa=true"}, `{"spec_sa":true}`},
	{"flag -lookahead", "-lookahead", []string{"-set", "lookahead_rc=true"}, `{"lookahead_rc":true}`},
	{"flag -obswindow", "-obswindow 500", []string{"-set", "observe.window=500"}, `{"observe":{"window":500}}`},
	{"flag -enginestats", "-enginestats", []string{"-enginestats"}, `{"observe":{"engine":true}}`},
	{"ci chiplet, README, EXPERIMENTS ext-chiplet", "-chips 2x2/4x4+express -d2d 8:4 -traffic ur -rate 0.05 -warmup 500 -measure 2000",
		[]string{"-set", `chips={"chips_x":2,"chips_y":2,"nodes_x":4,"nodes_y":4,"d2d_latency":8,"d2d_ser_cycles":4,"express":true}`, "-set", "traffic.rate=0.05", "-set", "warmup=500", "-set", "measure=2000", "-set", "drain=4000"},
		`{"traffic":{"rate":0.05},"warmup":500,"measure":2000,"drain":4000,"chips":{"chips_x":2,"chips_y":2,"nodes_x":4,"nodes_y":4,"d2d_latency":8,"d2d_ser_cycles":4,"express":true}}`},
	{"ci collective", "-arch 2DB -traffic collective -algorithm tree-broadcast -ranks 16 -iters 2 -measure 20000 -steptable",
		[]string{"-set", "arch=2DB", "-set", "warmup=0", "-set", `traffic={"kind":"collective","collective":{"algorithm":"tree-broadcast","participants":16,"iterations":2}}`, "-steptable"},
		`{"arch":"2DB","traffic":{"kind":"collective","collective":{"algorithm":"tree-broadcast","participants":16,"iterations":2},"rate":null},"warmup":0}`},
	{"ci round trip", "-arch 3DM-E -traffic ur -rate 0.1 -measure 1000 -dump",
		[]string{"-set", "arch=3DM-E", "-set", "traffic.rate=0.1", "-set", "measure=1000", "-set", "drain=2000", "-dump"},
		`{"arch":"3DM-E","traffic":{"rate":0.1},"measure":1000,"drain":2000}`},
	{"ci observability, verify skill", "-arch 3DM -traffic ur -rate 0.15 -warmup 500 -measure 2000 -trace run.jsonl -series occ.csv",
		[]string{"-set", "warmup=500", "-set", "measure=2000", "-set", "drain=4000", "-trace", "run.jsonl", "-series", "occ.csv"},
		`{"warmup":500,"measure":2000,"drain":4000,"observe":{}}`},
	{"ci observability GOMAXPROCS=1", "-arch 3DM -traffic ur -rate 0.15 -warmup 500 -measure 2000 -trace run1.jsonl",
		[]string{"-set", "warmup=500", "-set", "measure=2000", "-set", "drain=4000", "-trace", "run1.jsonl"},
		`{"warmup":500,"measure":2000,"drain":4000,"observe":{}}`},
	{"ci span", "-arch 3DM -traffic ur -rate 0.15 -warmup 500 -measure 2000 -attrib stages.csv",
		[]string{"-set", "warmup=500", "-set", "measure=2000", "-set", "drain=4000", "-attrib", "stages.csv"},
		`{"warmup":500,"measure":2000,"drain":4000,"observe":{"spans":true}}`},
	{"ci serve", "-arch 3DM -traffic ur -rate 0.1 -measure 3000000 -shards 4 -dump",
		[]string{"-set", "traffic.rate=0.1", "-set", "measure=3000000", "-set", "drain=6000000", "-set", "shards=4", "-dump"},
		`{"traffic":{"rate":0.1},"measure":3000000,"drain":6000000,"shards":4}`},
	{"ci engine", "-arch 3DM -traffic ur -rate 0.15 -warmup 500 -measure 2000 -shards 4 -trace eng-run.jsonl -progress -enginestats -series eng.csv",
		[]string{"-set", "warmup=500", "-set", "measure=2000", "-set", "drain=4000", "-set", "shards=4", "-trace", "eng-run.jsonl", "-progress", "-enginestats", "-series", "eng.csv"},
		`{"warmup":500,"measure":2000,"drain":4000,"shards":4,"observe":{"engine":true}}`},
	{"ci engine bare", "-arch 3DM -traffic ur -rate 0.15 -warmup 500 -measure 2000 -shards 4 -trace eng-bare.jsonl",
		[]string{"-set", "warmup=500", "-set", "measure=2000", "-set", "drain=4000", "-set", "shards=4", "-trace", "eng-bare.jsonl"},
		`{"warmup":500,"measure":2000,"drain":4000,"shards":4,"observe":{}}`},
	{"README shards", "-arch 3DM -traffic ur -rate 0.2 -shards=4",
		[]string{"-set", "traffic.rate=0.2", "-set", "shards=4"},
		`{"traffic":{"rate":0.2},"shards":4}`},
	{"README auto shards", "-arch 3DM -traffic ur -rate 0.2 -shards=-1",
		[]string{"-set", "traffic.rate=0.2", "-set", "shards=-1"},
		`{"traffic":{"rate":0.2},"shards":-1}`},
	{"README chiplet", "-chips 2x2/4x4 -d2d 4 -traffic ur -rate 0.1",
		[]string{"-set", `chips={"chips_x":2,"chips_y":2,"nodes_x":4,"nodes_y":4,"d2d_latency":4}`, "-set", "traffic.rate=0.1"},
		`{"traffic":{"rate":0.1},"chips":{"chips_x":2,"chips_y":2,"nodes_x":4,"nodes_y":4,"d2d_latency":4}}`},
	{"README collective", "-arch 2DB -traffic collective -algorithm ring-allreduce -iters 4 -measure 100000",
		[]string{"-set", "arch=2DB", "-set", "warmup=0", "-set", "measure=100000", "-set", "drain=200000", "-set", `traffic={"kind":"collective","collective":{"algorithm":"ring-allreduce","iterations":4}}`},
		`{"arch":"2DB","traffic":{"kind":"collective","collective":{"algorithm":"ring-allreduce","iterations":4},"rate":null},"warmup":0,"measure":100000,"drain":200000}`},
	{"EXPERIMENTS ext-collective", "-arch 2DB -traffic collective -algorithm ring-allreduce -iters 4 -measure 100000 -steptable",
		[]string{"-set", "arch=2DB", "-set", "warmup=0", "-set", "measure=100000", "-set", "drain=200000", "-set", `traffic={"kind":"collective","collective":{"algorithm":"ring-allreduce","iterations":4}}`, "-steptable"},
		`{"arch":"2DB","traffic":{"kind":"collective","collective":{"algorithm":"ring-allreduce","iterations":4},"rate":null},"warmup":0,"measure":100000,"drain":200000}`},
	{"README single run", "-arch 3DM-E -traffic ur -rate 0.2",
		[]string{"-set", "arch=3DM-E", "-set", "traffic.rate=0.2"},
		`{"arch":"3DM-E","traffic":{"rate":0.2}}`},
	{"README trace workload", "-arch 3DM -traffic trace -workload tpcw -stepmode checked -seed 7",
		[]string{"-set", `traffic={"kind":"trace","workload":"tpcw","trace_cycles":20000}`, "-set", "step_mode=checked", "-set", "seed=7"},
		`{"traffic":{"kind":"trace","workload":"tpcw","trace_cycles":20000,"rate":null},"seed":7,"step_mode":"checked"}`},
	{"README -dump sample", "-arch 3DM -traffic hotspot -rate 0.1 -measure 1000 -dump",
		[]string{"-set", `traffic={"kind":"hotspot","rate":0.1,"hot_frac":0.3}`, "-set", "measure=1000", "-set", "drain=2000", "-dump"},
		`{"traffic":{"kind":"hotspot","rate":0.1,"hot_frac":0.3},"measure":1000,"drain":2000}`},
	{"README sweep", "-arch 2DB -traffic ur -rate 0.1 -dump",
		[]string{"-set", "arch=2DB", "-set", "traffic.rate=0.1", "-dump"},
		`{"arch":"2DB","traffic":{"rate":0.1}}`},
	{"README observability", "-arch 3DM -traffic ur -rate 0.15 -trace run.jsonl -series occ.csv",
		[]string{"-trace", "run.jsonl", "-series", "occ.csv"},
		`{"observe":{}}`},
	{"README span", "-arch 3DM -traffic ur -rate 0.15 -attrib stages.csv",
		[]string{"-attrib", "stages.csv"},
		`{"observe":{"spans":true}}`},
	{"README engine", "-arch 3DM -traffic ur -rate 0.15 -shards 4 -progress -enginestats -series run.csv -trace run.jsonl",
		[]string{"-set", "shards=4", "-progress", "-enginestats", "-series", "run.csv", "-trace", "run.jsonl"},
		`{"shards":4,"observe":{"engine":true}}`},
	{"verify skill default", "", []string{}, `{}`},
	{"verify skill sharded", "-arch 2DB -chips 1x1/16x16 -rate 0.10 -shards 2",
		[]string{"-set", "arch=2DB", "-set", `chips={"chips_x":1,"chips_y":1,"nodes_x":16,"nodes_y":16}`, "-set", "traffic.rate=0.10", "-set", "shards=2"},
		`{"arch":"2DB","traffic":{"rate":0.1},"shards":2,"chips":{"chips_x":1,"chips_y":1,"nodes_x":16,"nodes_y":16}}`},
	{"verify skill sequential", "-arch 2DB -chips 1x1/16x16 -rate 0.10 -shards 1",
		[]string{"-set", "arch=2DB", "-set", `chips={"chips_x":1,"chips_y":1,"nodes_x":16,"nodes_y":16}`, "-set", "traffic.rate=0.10", "-set", "shards=1"},
		`{"arch":"2DB","traffic":{"rate":0.1},"shards":1,"chips":{"chips_x":1,"chips_y":1,"nodes_x":16,"nodes_y":16}}`},
	{"verify skill observability", "-arch 3DM -traffic ur -rate 0.15 -warmup 500 -measure 2000 -trace run.jsonl",
		[]string{"-set", "warmup=500", "-set", "measure=2000", "-set", "drain=4000", "-trace", "run.jsonl"},
		`{"warmup":500,"measure":2000,"drain":4000,"observe":{}}`},
}

// mergePatch applies the JSON merge patch patch to doc.
func mergePatch(doc, patch map[string]any) {
	for k, v := range patch {
		switch v := v.(type) {
		case nil:
			delete(doc, k)
		case map[string]any:
			sub, ok := doc[k].(map[string]any)
			if !ok {
				sub = map[string]any{}
			}
			mergePatch(sub, v)
			doc[k] = sub
		default:
			doc[k] = v
		}
	}
}

// wantDump is defaultDump with delta merged in, laid out as -dump lays
// out a scenario.
func wantDump(t *testing.T, delta string) string {
	t.Helper()
	var doc, patch map[string]any
	if err := json.Unmarshal([]byte(defaultDump), &doc); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(delta), &patch); err != nil {
		t.Fatalf("delta %s: %v", delta, err)
	}
	mergePatch(doc, patch)
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var sc scenario.Scenario
	if err := dec.Decode(&sc); err != nil {
		t.Fatalf("delta %s: %v", delta, err)
	}
	out, err := json.MarshalIndent(sc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(out) + "\n"
}

func TestRespelledInvocationsDumpTheSameScenario(t *testing.T) {
	if got := wantDump(t, "{}"); got != defaultDump {
		t.Fatalf("the empty delta lays out as\n%s\nnot as defaultDump", got)
	}
	for _, row := range respelled {
		t.Run(row.name, func(t *testing.T) {
			out, errOut, code := run(t, append(row.new, "-dump")...)
			if code != 0 {
				t.Fatalf("mirasim %q -dump exited %d: %s", row.new, code, errOut)
			}
			if want := wantDump(t, row.delta); out != want {
				t.Errorf("mirasim %q -dump (was: mirasim %s) printed\n%s\nwant\n%s", row.new, row.old, out, want)
			}
		})
	}
}

// TestDefaultIsTheGoldenTraceScenario pins the built-in default to the
// scenario whose trace digest internal/obs commits: the CI observability
// smoke records it with these windows, and -trace adds the empty
// observe block.
func TestDefaultIsTheGoldenTraceScenario(t *testing.T) {
	want, err := os.ReadFile("../../internal/obs/testdata/trace_3dm.json")
	if err != nil {
		t.Fatal(err)
	}
	out, errOut, code := run(t, "-set", "warmup=500", "-set", "measure=2000", "-set", "drain=4000", "-trace", "run.jsonl", "-dump")
	if code != 0 || out != string(want) {
		t.Errorf("exit %d, dump\n%s\nwant\n%s%s", code, out, want, errOut)
	}
}

// writeScenarios stores scs as a -scenario file and returns its path.
func writeScenarios(t *testing.T, scs any) string {
	t.Helper()
	data, err := json.Marshal(scs)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sc.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestUsageErrors(t *testing.T) {
	file := writeScenarios(t, []scenario.Scenario{{Arch: "2DB", Traffic: scenario.Traffic{Kind: "ur", Rate: 0.1}, Measure: 100}})
	type usageCase struct {
		name string
		args []string
		want string
	}
	cases := []usageCase{
		{"unknown key", []string{"-set", "shard=4"}, `unknown field "shard"`},
		{"unknown nested key", []string{"-set", "traffic.rat=0.1"}, `unknown field "rat"`},
		{"mistyped value", []string{"-set", "traffic.rate=fast"}, "traffic.rate"},
		{"missing =", []string{"-set", "warmup"}, `"warmup" is not key=value`},
		{"edit under a non-object", []string{"-set", "arch.x=1"}, "arch is not an object"},
		{"forgotten -set", []string{"arch=3DM-E"}, `unexpected argument "arch=3DM-E"`},
		{"buf_depth beyond the bound", []string{"-set", "buf_depth=100000000"}, "buf_depth = 100000000"},
		{"vcs beyond the request mask", []string{"-set", "vcs=100"}, "vcs = 100"},
		{"collective keeps the default warm-up", []string{"-set", `traffic={"kind":"collective","collective":{"algorithm":"ring-allreduce"}}`}, "set warmup to 0"},
	}
	for _, kv := range []string{"matrix_arb=true", "traffic.bank_delay=24", "traffic.hot=[14]", "chips.express_latency=6"} {
		key, _, _ := strings.Cut(kv, "=")
		cases = append(cases, usageCase{"retired " + key, []string{"-set", kv}, "unknown field"})
	}
	for _, f := range []string{"-trace=x", "-series=x", "-attrib=x", "-steptable", "-enginestats"} {
		name, _, _ := strings.Cut(f, "=")
		cases = append(cases, usageCase{"batch " + name, []string{"-scenario", file, f}, name + " applies to a single run"})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			out, errOut, code := run(t, append(c.args, "-dump")...)
			if code != 2 || !strings.Contains(errOut, c.want) || out != "" {
				t.Errorf("mirasim %q: exit %d, stderr %q, stdout %q; want exit 2 naming %q", c.args, code, errOut, out, c.want)
			}
		})
	}
}

// TestScenarioFileEdits: -set and -progress apply to every scenario of a
// -scenario file, and -dump prints the edited batch instead of running it.
func TestScenarioFileEdits(t *testing.T) {
	base := scenario.Scenario{Arch: "2DB", Traffic: scenario.Traffic{Kind: "ur", Rate: 0.1}, Measure: 100}
	other := base
	other.Arch = "3DM-E"
	out, errOut, code := run(t, "-scenario", writeScenarios(t, []scenario.Scenario{base, other}), "-set", "shards=2", "-progress", "-dump")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	var got []scenario.Scenario
	if err := json.Unmarshal([]byte(out), &got); err != nil {
		t.Fatalf("dump is not a scenario array: %v\n%s", err, out)
	}
	if len(got) != 2 || got[0].Arch != "2DB" || got[1].Arch != "3DM-E" {
		t.Fatalf("dumped batch = %+v", got)
	}
	for i, sc := range got {
		if sc.Shards != 2 || sc.Observe == nil || !sc.Observe.Engine {
			t.Errorf("scenario %d = %+v, want shards 2 and observe.engine", i, sc)
		}
	}

	// A single-object file dumps as an object, ready to be read back.
	out, errOut, code = run(t, "-scenario", writeScenarios(t, base), "-set", "shards=2", "-dump")
	if code != 0 || !strings.Contains(out, `"shards": 2`) || !strings.HasPrefix(out, "{") {
		t.Errorf("exit %d, dump\n%s%s", code, out, errOut)
	}
}

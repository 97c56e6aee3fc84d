package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the harness binary: the
// smoke pass re-executes os.Executable() as its repetitions.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		childMain()
		return
	}
	os.Exit(m.Run())
}

func TestSummarize(t *testing.T) {
	for _, tc := range []struct {
		in               []float64
		median, min, max float64
	}{
		{[]float64{3}, 3, 3, 3},
		{[]float64{4, 1}, 2.5, 1, 4},
		{[]float64{9, 1, 5}, 5, 1, 9},
		{[]float64{2, 8, 4, 6}, 5, 2, 8},
	} {
		orig := append([]float64{}, tc.in...)
		s := summarize("s", tc.in)
		if s.Median != tc.median || s.Min != tc.min || s.Max != tc.max || s.N != len(tc.in) || s.Unit != "s" {
			t.Errorf("summarize(%v) = %+v, want median %v min %v max %v", tc.in, s, tc.median, tc.min, tc.max)
		}
		for i := range orig {
			if orig[i] != tc.in[i] {
				t.Errorf("summarize reordered its input: %v -> %v", orig, tc.in)
			}
		}
	}
	if s := summarize("s", nil); s.N != 0 || s.Median != 0 {
		t.Errorf("summarize(nil) = %+v", s)
	}
}

func TestDigestCanonical(t *testing.T) {
	base := `{"cycles":100,"ejected":7,"per_class":[{"ejected":7,"avg_latency":1.5}],"counters":{"XbarFlits":9}}`
	reordered := `{"counters":{"XbarFlits":9},"ejected":7,"cycles":100,"per_class":[{"avg_latency":1.5,"ejected":7}]}`
	stalled := `{"cycles":100,"ejected":7,"stalled":true,"per_class":[{"ejected":7,"avg_latency":1.5}],"counters":{"XbarFlits":9}}`
	moved := `{"cycles":100,"ejected":7,"per_class":[{"ejected":7,"avg_latency":1.5}],"counters":{"XbarFlits":10}}`
	want, err := digest([]byte(base))
	if err != nil {
		t.Fatal(err)
	}
	for name, in := range map[string]string{"field order": reordered, "stalled flag": stalled} {
		if got, err := digest([]byte(in)); err != nil || got != want {
			t.Errorf("%s changed the digest: %s vs %s (err %v)", name, got, want, err)
		}
	}
	if got, _ := digest([]byte(moved)); got == want {
		t.Error("a changed counter kept the digest")
	}
	if _, err := digest([]byte("not json")); err == nil {
		t.Error("digest accepted malformed JSON")
	}
}

func TestPaperGapPP(t *testing.T) {
	out, err := os.ReadFile("testdata/mirabench_quick.csv")
	if err != nil {
		t.Fatal(err)
	}
	// fig11a at 0.30: 3DB 28.6, 3DM-E 21.0 -> 26.57 % vs the paper's 26;
	// fig11c: mean 3DM-E/2DB 0.619 -> 38.1 % vs 38. The larger gap wins.
	want := 100*(1-21.0/28.6) - 26
	got, err := paperGapPP(string(out))
	if err != nil || math.Abs(got-want) > 1e-9 {
		t.Errorf("paperGapPP = %v, %v; want %v", got, err, want)
	}
	if _, err := paperGapPP(strings.Replace(string(out), "# fig11c", "# fig11x", 1)); err == nil {
		t.Error("paperGapPP accepted output without fig11c")
	}
	if _, err := paperGapPP(strings.Replace(string(out), ",3DM-E,", ",3DM-X,", 1)); err == nil {
		t.Error("paperGapPP accepted fig11a without a 3DM-E column")
	}
}

func TestExpSeconds(t *testing.T) {
	data, err := os.ReadFile("testdata/timing.json")
	if err != nil {
		t.Fatal(err)
	}
	got, err := expSeconds(data)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Total float64 `json:"total_seconds"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, m := range perLayer {
		if strings.HasPrefix(m.Name, "exp.") && m.Name != "exp.worker_utilization" {
			if _, ok := got[m.Name]; !ok {
				t.Errorf("no experiment fell into %s", m.Name)
			}
			sum += got[m.Name]
		}
	}
	if len(got) != 9 || math.Abs(sum-rep.Total) > 1e-9 {
		t.Errorf("groups %v sum to %v, file total %v", got, sum, rep.Total)
	}
	// fig13a is a CMP profile, fig13b/c are simulations; fig10 is static.
	for id, want := range map[string]string{
		"fig13a": "exp.cmp_profiles_s", "fig13b": "exp.fig13_s", "fig10": "exp.static_s",
		"fig1": "exp.cmp_profiles_s", "fig11d": "exp.fig11_s", "ext-chiplet": "exp.ext_s", "nope": "",
	} {
		if g := expGroup(id); g != want {
			t.Errorf("expGroup(%s) = %q, want %q", id, g, want)
		}
	}
	if _, err := expSeconds([]byte(`{"experiments":[{"id":"fig99","seconds":1}]}`)); err == nil {
		t.Error("expSeconds accepted an experiment no group claims")
	}
}

func TestJudge(t *testing.T) {
	bounds := map[string]float64{"wall_s": 0.10, "setup_s": 0.25}
	st := func(med, lo, hi float64) stat { return stat{Median: med, Min: lo, Max: hi, N: 5} }
	for _, tc := range []struct {
		name, metric string
		a, b         stat
		want         string
	}{
		{"within bound", "wall_s", st(2, 1.98, 2.02), st(2.1, 2.08, 2.12), verdictOK},
		{"past bound", "wall_s", st(2, 1.98, 2.02), st(2.21, 2.2, 2.22), verdictRegression},
		{"all runs faster", "wall_s", st(2, 1.9, 2.4), st(1.5, 1.4, 1.8), verdictBetter},
		{"spread wider than bound", "wall_s", st(2, 1.8, 2.3), st(2.05, 2.0, 2.1), verdictUnresolved},
		// setup_s: 25 % of 2 ms is 0.5 ms, but the floor allows 50 ms.
		{"setup under the floor", "setup_s", st(0.002, 0.001, 0.004), st(0.03, 0.02, 0.04), verdictOK},
		{"setup past the floor", "setup_s", st(0.002, 0.001, 0.004), st(0.06, 0.055, 0.07), verdictRegression},
		// Above the floor the relative bound rules: 25 % of 1 s.
		{"large setup, relative", "setup_s", st(1, 0.99, 1.01), st(1.3, 1.29, 1.31), verdictRegression},
		{"flit-hop cost follows wall_s", "ns_per_flit_hop", st(150, 149, 151), st(164, 163, 165), verdictOK},
		{"flit-hop cost past wall_s's bound", "ns_per_flit_hop", st(150, 149, 151), st(166, 165, 167), verdictRegression},
		{"allocs 2 %", "allocs_per_kcycle", st(1000, 1000, 1000), st(1025, 1025, 1025), verdictRegression},
		{"paper gap absolute", "paper_gap_pp", st(0.6, 0.6, 0.6), st(1.0, 1.0, 1.0), verdictOK},
		{"paper gap past 0.5 pp", "paper_gap_pp", st(0.6, 0.6, 0.6), st(1.2, 1.2, 1.2), verdictRegression},
	} {
		tol := tolerance(tc.metric, tc.a.Median, bounds)
		if got := judge(tc.a, tc.b, tol); got != tc.want {
			t.Errorf("%s: judge = %s, want %s (tolerance %v)", tc.name, got, tc.want, tol)
		}
	}
}

func TestCompareResults(t *testing.T) {
	mk := func(wall, hops float64, digest string) *result {
		return &result{Workloads: []workloadResult{{
			Name: "ur6x6_dense", Digest: digest,
			EndToEnd: map[string]stat{"wall_s": {Unit: "s", Median: wall, Min: wall, Max: wall, N: 3}},
			PerLayer: map[string]float64{"noc.flit_hops": hops, "noc.step_s": wall},
		}}}
	}
	bounds := map[string]float64{"wall_s": 0.10}
	c := compareResults(mk(2, 100, "d"), mk(2.1, 100, "d"), bounds)
	if len(c.Rows) != 1 || c.Rows[0].Verdict != verdictOK || c.Regressions+c.Unresolved+len(c.ExactDiffs)+len(c.DigestDiffs) != 0 {
		t.Errorf("A/A-like pair: %+v", c)
	}
	c = compareResults(mk(2, 100, "d"), mk(2.5, 101, "e"), bounds)
	if c.Regressions != 1 || len(c.ExactDiffs) != 1 || c.ExactDiffs[0].Metric != "noc.flit_hops" || len(c.DigestDiffs) != 1 {
		t.Errorf("regressed pair: %+v", c)
	}
}

func TestSelfTime(t *testing.T) {
	tr := newTracer()
	// 10 step spans of 100 ns, holding 30 probe spans of 20 ns in all.
	tr.totals[spanStep] = spanTotals{Calls: 10, ChildCalls: 30, Total: 1000, Child: 600}
	cost := timerCost{Pair: 5, Inside: 2}
	// 1000 - 600 - 10*2 (own inside part) - 30*(5-2) (children's outside part)
	if got := tr.self(spanStep, cost); got != 290 {
		t.Errorf("self = %v, want 290ns", got)
	}
	tr.totals[spanProbe] = spanTotals{Calls: 30, Total: 50}
	if got := tr.self(spanProbe, cost); got != 0 {
		t.Errorf("self = %v, want it clamped at 0", got)
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	tr.begin(spanRun)
	tr.begin(spanStep)
	tr.begin(spanProbe)
	tr.end()
	tr.end()
	tr.begin(spanGenerate)
	tr.end()
	tr.end()
	if len(tr.stack) != 0 || len(tr.spans) != 4 {
		t.Fatalf("stack %d, spans %d", len(tr.stack), len(tr.spans))
	}
	wantParent := []int32{-1, 0, 1, 0}
	for i, s := range tr.spans {
		if s.Parent != wantParent[i] || s.End < s.Start {
			t.Errorf("span %d: %+v, want parent %d", i, s, wantParent[i])
		}
	}
	run, step := tr.totals[spanRun], tr.totals[spanStep]
	if run.ChildCalls != 2 || step.ChildCalls != 1 || run.Child != step.Total+tr.totals[spanGenerate].Total {
		t.Errorf("totals: run %+v step %+v", run, step)
	}
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := tr.dump(path, map[string]any{"workload": "w"}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Split(strings.TrimSpace(string(data)), "\n"); len(lines) != 5 ||
		!strings.Contains(lines[0], `"spans_kept":4`) || !strings.Contains(lines[3], `"name":"obs.probe","parent":1`) {
		t.Errorf("dump:\n%s", data)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSON pins BENCHMARK.json to the declarations here and to
// the limits of the contract it is written to.
func TestBenchmarkJSON(t *testing.T) {
	var decl benchmarkDecl
	if err := readJSON(filepath.Join("..", benchmarkFile), &decl); err != nil {
		t.Fatal(err)
	}
	if strings.Join(decl.Command, " ") != "go run ./bench" || len(decl.Paths) != 1 || decl.Paths[0] != "bench" {
		t.Errorf("command %v, paths %v", decl.Command, decl.Paths)
	}
	if decl.RunSeconds < 1 || decl.RunSeconds > 60 {
		t.Errorf("run_seconds %d", decl.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, the harness has %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range decl.Workloads {
		name(w.Name)
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %+v, the harness has %+v", i, w, workloads[i])
		}
	}
	if len(decl.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end_to_end metrics, the harness has %d", len(decl.EndToEnd), len(endToEnd))
	}
	maxBound, setupBound := 0.0, 0.0
	for i, m := range decl.EndToEnd {
		name(m.Name)
		want := endToEnd[i]
		if m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better || !unitRE.MatchString(m.Unit) {
			t.Errorf("end_to_end %d: %+v, the harness has %+v", i, m, want)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s has bound %v, the largest is %v", setupBound, maxBound)
	}
	if len(decl.PerLayer) != len(layers) || len(layers) > 128 {
		t.Fatalf("%d per_layer metrics, the harness has %d", len(decl.PerLayer), len(layers))
	}
	for i, m := range decl.PerLayer {
		name(m.Name)
		want := layers[i]
		if m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better || !unitRE.MatchString(m.Unit) {
			t.Errorf("per_layer %d: %+v, the harness has %+v", i, m, want)
		}
	}
}

func TestGenerateScenario(t *testing.T) {
	for _, w := range workloads[1:] {
		raw, err := generateScenario(w, 7, true)
		if err != nil {
			t.Fatal(err)
		}
		var sc struct {
			Seed, Warmup, Measure, Drain int64
		}
		if err := json.Unmarshal(raw, &sc); err != nil {
			t.Fatal(err)
		}
		if sc.Seed != 7 || sc.Measure < 100 || sc.Drain != 300 {
			t.Errorf("%s: smoke scenario %+v", w.Name, sc)
		}
		if w.Twin != "" {
			if _, ok := findWorkload(w.Twin); !ok {
				t.Errorf("%s: twin %q is not a workload", w.Name, w.Twin)
			}
		}
	}
}

// TestSmoke runs every scenario workload through the whole harness —
// child processes, digest checks, traced pass, printing, result file,
// the one-line result — with the windows divided by 100.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	var printed strings.Builder
	code := run([]string{"-smoke", "-seed", "7", "-out", "result.json"}, &printed)
	if code != 0 {
		t.Fatalf("smoke pass exited %d:\n%s", code, printed.String())
	}

	var res result
	if err := readJSON("result.json", &res); err != nil {
		t.Fatal(err)
	}
	if res.Claim != nil || res.Seed != 7 || res.Host.Threads == 0 || res.Host.Go == "" || len(res.Workloads) != len(workloads)-1 {
		t.Errorf("result header: %+v", res)
	}
	blocks := strings.Split(printed.String(), "\n== ")[1:]
	if len(blocks) != len(res.Workloads) {
		t.Fatalf("%d printed workloads, %d in the result", len(blocks), len(res.Workloads))
	}
	all := slices.Concat(reported, perLayer)
	for i, r := range res.Workloads {
		if r.FailedOps != 0 || r.Ops < minReps+1 || r.Digest == "" {
			t.Errorf("%s: ops %d failed %d digest %q", r.Name, r.Ops, r.FailedOps, r.Digest)
		}
		// Printed: every declared name exactly once, with a number (only
		// paper_gap_pp is n/a on a scenario workload).
		count := map[string]int{}
		for _, line := range strings.Split(blocks[i], "\n") {
			if f := strings.Fields(line); strings.HasPrefix(line, "  ") && len(f) >= 3 {
				count[f[0]]++
				if v := f[1]; f[0] != "paper_gap_pp" && (v == "n/a" || v == "NaN" || strings.Contains(v, "Inf")) {
					t.Errorf("%s: %s printed as %s", r.Name, f[0], v)
				}
			}
		}
		for _, m := range all {
			if count[m.Name] != 1 {
				t.Errorf("%s: %s printed %d times", r.Name, m.Name, count[m.Name])
			}
		}
		// One-line results: exactly BENCHMARK.json's names for each mode.
		for traced, want := range map[bool][]metric{false: endToEnd, true: all[len(endToEnd):]} {
			line, err := driverLine(&r, traced)
			if err != nil {
				t.Errorf("%s: %v", r.Name, err)
				continue
			}
			var got struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(line), &got); err != nil {
				t.Fatal(err)
			}
			if !got.Correct || got.Attempted != r.Ops || got.Failed != 0 || len(got.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %s", r.Name, traced, line)
			}
			for _, m := range want {
				if v, ok := got.Metrics[m.Name]; !ok || v.Unit != m.Unit || (!traced && v.Value <= 0) {
					t.Errorf("%s traced=%v: metric %s = %+v", r.Name, traced, m.Name, v)
				}
			}
		}
		// Each layer a workload exists for did its work in the traced pass.
		for _, m := range map[string][]string{
			"mesh16_shard2":  {"shard.mailbox_flits", "shard.barrier_s", "shard.speedup_vs_seq"},
			"chiplet_bcast":  {"collective.iterations_done", "noc.d2d_flits", "noc.ser_stalls"},
			"ur6x6_observed": {"obs.probe_events", "obs.trace_bytes", "obs.spans"},
		}[r.Name] {
			if r.PerLayer[m] <= 0 {
				t.Errorf("%s: %s = %v, want > 0", r.Name, m, r.PerLayer[m])
			}
		}
		if r.PerLayer["noc.flit_hops"] <= 0 || r.PerLayer["bench.timer_ns"] <= 0 || r.PerLayer["gen.calls"] <= 0 {
			t.Errorf("%s: traced pass counted nothing: %v", r.Name, r.PerLayer)
		}
	}
	if _, err := os.Stat(filepath.Join(buildDir, "spans_ur6x6_dense.jsonl")); err != nil {
		t.Errorf("no span dump: %v", err)
	}
}

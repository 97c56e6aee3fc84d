// Command bench is the repository's benchmark: seven workloads, the
// host costs an architect pays for each (set-up, wall clock, CPU, memory,
// cost per flit-hop, allocations, distance from the paper's numbers) and
// a traced pass that says which layer the time went to. README.md in
// this directory defines every workload and metric.
//
// Usage, from the repository root:
//
//	go run ./bench                       # every workload, traced pass included
//	go run ./bench -seed 7               # other inputs, same metric names
//	go run ./bench -workload ur6x6_dense -seconds 8 -trace 0
//	go run ./bench [-out LEDGER.json] -compare A.json B.json
//
// With -workload the last line of standard output is one JSON object
// {"correct","attempted","failed","metrics"}: the end-to-end metrics
// with -trace 0, the per-layer metrics with -trace 1. The exit status is
// non-zero if any operation failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// result is the host-stamped document a run writes. Claim is always
// null here: a benchmark run measures, the change that spends the
// numbers states the claim.
type result struct {
	Schema    string           `json:"schema"`
	Claim     *string          `json:"claim"`
	Host      host             `json:"host"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Smoke     bool             `json:"smoke,omitempty"`
	Workloads []workloadResult `json:"workloads"`
}

const schema = "mira-bench/1"

// host is the ledger header: numbers from different hosts do not compare.
type host struct {
	CPU        string `json:"cpu"`
	Threads    int    `json:"threads"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OS         string `json:"os"`
	Commit     string `json:"commit"`
}

func hostStamp() host {
	h := host{
		CPU:        "unknown",
		Threads:    runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		OS:         runtime.GOOS + "/" + runtime.GOARCH,
		Commit:     "unknown", // e.g. an exported tree without .git
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(st) > 0 {
			h.Commit += "+dirty"
		}
	}
	return h
}

func main() {
	if os.Getenv(childEnv) != "" {
		childMain()
		return
	}
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run is main without the process: results go to stdout, complaints to
// standard error, and the exit status is returned.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "run this workload only and end with the one-line JSON result (default: all)")
	seed := fs.Int64("seed", 42, "seed of every generated input")
	seconds := fs.Float64("seconds", 8, "start untraced repetitions until this much time has been measured (at least 2)")
	trace := fs.Int("trace", 1, "1 adds the traced repetition and the per-layer metrics, 0 measures end to end only")
	smoke := fs.Bool("smoke", false, "scenario workloads only, windows / 100: checks the harness, measures nothing")
	out := fs.String("out", "", "write the result JSON here (default "+buildDir+"/result.json; with -compare: the ledger entry)")
	compare := fs.Bool("compare", false, "compare two result files, A (baseline) and B, against the bounds in BENCHMARK.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two result files")
			return 2
		}
		return compareFiles(stdout, fs.Arg(0), fs.Arg(1), *out)
	}
	if fs.NArg() != 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: unexpected arguments; see -h")
		return 2
	}

	selected := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		selected = []workload{w}
	} else if *smoke {
		selected = workloads[1:] // paper_suite has no windows to shrink
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}

	opt := options{Seed: *seed, Seconds: *seconds, Traced: *trace == 1, Smoke: *smoke}
	if *smoke {
		opt.Seconds = 0 // the minimum repetitions: enough for every check
	}
	res := result{Schema: schema, Host: hostStamp(), Seed: *seed, Seconds: opt.Seconds, Smoke: *smoke}
	fmt.Fprintf(stdout, "host: %s, %d threads, GOMAXPROCS %d, %s, commit %s; seed %d\n",
		res.Host.CPU, res.Host.Threads, res.Host.GOMAXPROCS, res.Host.Go, res.Host.Commit, *seed)
	failed := 0
	for _, w := range selected {
		r := runWorkload(w, opt)
		printWorkload(stdout, &r)
		failed += r.FailedOps
		res.Workloads = append(res.Workloads, r)
	}

	path := *out
	if path == "" {
		path = filepath.Join(buildDir, "result.json")
	}
	if err := writeJSON(path, &res); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "result: %s\n", path)
	if *name != "" {
		line, err := driverLine(&res.Workloads[0], opt.Traced)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Fprintln(stdout, line)
	}
	if failed > 0 {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// layerValue reads a per-layer metric of a finished workload: the
// scoped end-to-end metrics from the untraced medians, the rest from the
// traced pass; 0 where the workload does not define it.
func layerValue(r *workloadResult, name string) float64 {
	if s, ok := r.EndToEnd[name]; ok {
		return s.Median
	}
	return r.PerLayer[name]
}

func printWorkload(w io.Writer, r *workloadResult) {
	fmt.Fprintf(w, "\n== %s  ops %d  failed_ops %d  digest %s\n", r.Name, r.Ops, r.FailedOps, r.Digest)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
	fmt.Fprintln(w, "end-to-end, tracing off: median [min .. max] of n repetitions (n is too small for a tail percentile)")
	for _, m := range reported {
		s, ok := r.EndToEnd[m.Name]
		if !ok {
			fmt.Fprintf(w, "  %-28s %14s %-5s\n", m.Name, "n/a", m.Unit)
			continue
		}
		fmt.Fprintf(w, "  %-28s %14.6g %-5s [%.6g .. %.6g] n=%d\n", m.Name, s.Median, m.Unit, s.Min, s.Max, s.N)
	}
	if r.PerLayer == nil {
		return
	}
	fmt.Fprintln(w, "per-layer, one traced repetition (self time = span - child spans - timer cost)")
	for _, m := range perLayer {
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", m.Name, r.PerLayer[m.Name], m.Unit)
	}
}

// driverLine is the one-line result of a -workload run: the metric set
// BENCHMARK.json declares for the trace mode, every name present.
func driverLine(r *workloadResult, traced bool) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if traced {
		for _, m := range layers {
			metrics[m.Name] = value{layerValue(r, m.Name), m.Unit}
		}
	} else {
		for _, m := range endToEnd {
			s, ok := r.EndToEnd[m.Name]
			if !ok {
				return "", fmt.Errorf("%s: no successful repetition measured %s", r.Name, m.Name)
			}
			metrics[m.Name] = value{s.Median, m.Unit}
		}
	}
	for name, v := range metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return "", fmt.Errorf("%s: %s is not finite", r.Name, name)
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   r.FailedOps == 0,
		"attempted": r.Ops,
		"failed":    r.FailedOps,
		"metrics":   metrics,
	})
	return string(line), err
}

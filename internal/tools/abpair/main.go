// Command abpair is the A/B instrument of ROADMAP item 3(a): it builds
// ./bench at a base revision and at the working tree, runs one workload
// as interleaved pairs alternating which side goes first, and applies
// the rule of the choosing-metrics guide, section 8.
//
//	go run ./internal/tools/abpair -base HEAD~1 -workload ur6x6_dense [-rounds 10]
//
// A is the base (exported with git archive into a temporary directory —
// the repository's worktree list is not touched), B the working tree.
// Every run is `bench -workload W -trace 0 -seconds 4`, pinned to CPUs
// 0,1 with taskset when present (no workload uses more than 2 threads);
// the numbers compared are that run's medians of wall_s, cpu_s and
// peak_rss_mb, each judged on its own.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// metrics are the end-to-end numbers compared, all better when lower.
var metrics = [...]string{"wall_s", "cpu_s", "peak_rss_mb"}

func main() {
	base := flag.String("base", "", "revision the working tree is compared against (side A)")
	workload := flag.String("workload", "", "benchmark workload to run (see BENCHMARK.json)")
	rounds := flag.Int("rounds", 10, "pairs to run")
	flag.Parse()
	if *base == "" || *workload == "" || *rounds < 1 || flag.NArg() != 0 {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*base, *workload, *rounds); err != nil {
		fmt.Fprintln(os.Stderr, "abpair:", err)
		os.Exit(1)
	}
}

func run(base, workload string, rounds int) error {
	tmp, err := os.MkdirTemp("", "abpair-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	baseDir := filepath.Join(tmp, "base")
	if err := os.Mkdir(baseDir, 0o755); err != nil {
		return err
	}
	export := exec.Command("sh", "-c", `git archive "$1" | tar -x -C "$2"`, "sh", base, baseDir)
	if out, err := export.CombinedOutput(); err != nil {
		return fmt.Errorf("export %s: %v\n%s", base, err, out)
	}
	dirs := [2]string{baseDir, "."}
	var bins [2]string
	for s, dir := range dirs {
		bins[s] = filepath.Join(tmp, "bench_"+"AB"[s:s+1])
		build := exec.Command("go", "build", "-o", bins[s], "./bench")
		build.Dir = dir
		if out, err := build.CombinedOutput(); err != nil {
			return fmt.Errorf("build ./bench in %s: %v\n%s", dir, err, out)
		}
	}
	var pin []string
	if path, err := exec.LookPath("taskset"); err == nil {
		pin = []string{path, "-c", "0,1"}
	}
	var vals [len(metrics)][2][]float64
	var wins [len(metrics)][2]int
	fmt.Printf("%s: A = %s, B = working tree, %d rounds, %s\n", workload, base, rounds, strings.Join(metrics[:], ", "))
	for i := 0; i < rounds; i++ {
		var v [2][len(metrics)]float64
		for _, s := range [2]int{i & 1, 1 - i&1} { // alternate which side goes first
			args := append(append([]string{}, pin...), bins[s], "-workload", workload,
				"-trace", "0", "-seconds", "4", "-out", filepath.Join(tmp, "result.json"))
			cmd := exec.Command(args[0], args[1:]...)
			cmd.Dir = dirs[s]
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("round %d side %c: %v", i+1, "AB"[s], err)
			}
			if v[s], err = medians(out); err != nil {
				return fmt.Errorf("round %d side %c: %v", i+1, "AB"[s], err)
			}
		}
		fmt.Printf("  round %2d", i+1)
		for m, name := range metrics {
			a, b := v[0][m], v[1][m]
			vals[m][0], vals[m][1] = append(vals[m][0], a), append(vals[m][1], b)
			switch {
			case b < a:
				wins[m][1]++
			case a < b:
				wins[m][0]++
			}
			fmt.Printf("  %s A %.3f B %.3f B/A %.3f", name, a, b, b/a)
		}
		fmt.Println()
	}
	for m, name := range metrics {
		verdict(name, vals[m], wins[m], rounds)
	}
	return nil
}

// verdict prints one metric's medians, quartiles and section-8 verdict.
func verdict(name string, vals [2][]float64, wins [2]int, rounds int) {
	var q [2][3]float64
	for s := range vals {
		sort.Float64s(vals[s])
		for k := range q[s] {
			q[s][k] = quantile(vals[s], float64(k+1)/4)
		}
	}
	gap, spread := q[0][1]-q[1][1], q[0][2]-q[0][0]
	fmt.Printf("%s: A median %.3f (quartiles %.3f .. %.3f), B median %.3f (quartiles %.3f .. %.3f)\n",
		name, q[0][1], q[0][0], q[0][2], q[1][1], q[1][0], q[1][2])
	fmt.Printf("%s: median B/A %.3f; B won %d of %d pairs, A %d; median gap %.3f vs A's quartile distance %.3f\n",
		name, q[1][1]/q[0][1], wins[1], rounds, wins[0], gap, spread)
	// Section 8: a side must win nine tenths of all pairs run and the
	// medians must differ by more than the parent's quartile distance.
	switch {
	case 10*wins[1] >= 9*rounds && gap > spread:
		fmt.Printf("%s verdict: resolved at %d rounds, B is lower\n", name, rounds)
	case 10*wins[0] >= 9*rounds && -gap > spread:
		fmt.Printf("%s verdict: resolved at %d rounds, B is higher\n", name, rounds)
	default:
		fmt.Printf("%s verdict: not resolved at %d rounds\n", name, rounds)
	}
}

// medians reads the compared metrics' medians from a bench run's last
// output line, the one-line JSON result of -workload.
func medians(out []byte) (v [len(metrics)]float64, err error) {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res struct {
		Correct bool `json:"correct"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return v, fmt.Errorf("bench result line: %w", err)
	}
	for i, name := range metrics {
		m, ok := res.Metrics[name]
		if !ok || !res.Correct {
			return v, fmt.Errorf("bench run failed or reported no %s: %s", name, lines[len(lines)-1])
		}
		v[i] = m.Value
	}
	return v, nil
}

// quantile interpolates the p-quantile of sorted.
func quantile(sorted []float64, p float64) float64 {
	x := p * float64(len(sorted)-1)
	i := int(x)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (x-float64(i))*(sorted[i+1]-sorted[i])
}

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
// the number compared is that run's median wall_s.
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
	var wall [2][]float64
	var wins [2]int
	fmt.Printf("%s: A = %s, B = working tree, %d rounds, wall_s\n", workload, base, rounds)
	for i := 0; i < rounds; i++ {
		var w [2]float64
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
			if w[s], err = wallSeconds(out); err != nil {
				return fmt.Errorf("round %d side %c: %v", i+1, "AB"[s], err)
			}
			wall[s] = append(wall[s], w[s])
		}
		switch {
		case w[1] < w[0]:
			wins[1]++
		case w[0] < w[1]:
			wins[0]++
		}
		fmt.Printf("  round %2d  A %.3f  B %.3f  B/A %.3f\n", i+1, w[0], w[1], w[1]/w[0])
	}

	var q [2][3]float64
	for s := range wall {
		sort.Float64s(wall[s])
		for k := range q[s] {
			q[s][k] = quantile(wall[s], float64(k+1)/4)
		}
		fmt.Printf("%c: median %.3f  quartiles %.3f .. %.3f\n", "AB"[s], q[s][1], q[s][0], q[s][2])
	}
	gap, spread := q[0][1]-q[1][1], q[0][2]-q[0][0]
	fmt.Printf("median B/A %.3f; B won %d of %d pairs, A %d; median gap %.3f s vs A's quartile distance %.3f s\n",
		q[1][1]/q[0][1], wins[1], rounds, wins[0], gap, spread)
	// Section 8: a side must win nine tenths of all pairs run and the
	// medians must differ by more than the parent's quartile distance.
	switch {
	case 10*wins[1] >= 9*rounds && gap > spread:
		fmt.Printf("verdict: resolved at %d rounds, B is faster\n", rounds)
	case 10*wins[0] >= 9*rounds && -gap > spread:
		fmt.Printf("verdict: resolved at %d rounds, B is slower\n", rounds)
	default:
		fmt.Printf("verdict: not resolved at %d rounds\n", rounds)
	}
	return nil
}

// wallSeconds reads the median wall_s from a bench run's last output
// line, the one-line JSON result of -workload.
func wallSeconds(out []byte) (float64, error) {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res struct {
		Correct bool `json:"correct"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return 0, fmt.Errorf("bench result line: %w", err)
	}
	m, ok := res.Metrics["wall_s"]
	if !ok || !res.Correct {
		return 0, fmt.Errorf("bench run failed or reported no wall_s: %s", lines[len(lines)-1])
	}
	return m.Value, nil
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

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkFile is the contract at the repository root: the command,
// the workloads and, per end-to-end metric, the bound -compare applies.
const benchmarkFile = "BENCHMARK.json"

type benchmarkDecl struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// tolerance is how much worse than the baseline median a metric may
// read before it is a regression, in the metric's own unit.
func tolerance(name string, baseline float64, bounds map[string]float64) float64 {
	if b, ok := scopedBound[name]; ok {
		return max(b.Rel*baseline, b.Abs)
	}
	switch name {
	case "ns_per_flit_hop":
		return bounds["wall_s"] * baseline
	case "setup_s":
		return max(bounds[name]*baseline, setupFloorS)
	}
	return bounds[name] * baseline
}

// Verdicts of one compared row.
const (
	verdictOK         = "ok"
	verdictBetter     = "better"     // every run of B beats every run of A
	verdictRegression = "regression" // B's median is worse by more than the bound
	verdictUnresolved = "unresolved" // within the bound, but the spread is wider than it
	verdictMissing    = "missing"    // measured on one side only
)

// compareRow is one (workload, end-to-end metric) pairing.
type compareRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	A        stat    `json:"a"`
	B        stat    `json:"b"`
	DeltaPct float64 `json:"delta_pct"` // (B - A) / A, medians
	Tol      float64 `json:"tolerance"` // in Unit
	Verdict  string  `json:"verdict"`
}

// judge compares B against the baseline A; every end-to-end metric is
// lower-is-better. Within the bound the row is still unresolved when
// either side's own min-max range is wider than the bound, unless B's
// runs all beat A's: such a pair cannot tell "unchanged" from "moved".
func judge(a, b stat, tol float64) string {
	switch {
	case b.Median-a.Median > tol:
		return verdictRegression
	case b.Max < a.Min:
		return verdictBetter
	case max(a.Max-a.Min, b.Max-b.Min) > tol:
		return verdictUnresolved
	}
	return verdictOK
}

// exactDiff is a simulated statistic that two runs disagree on.
type exactDiff struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	A        float64 `json:"a"`
	B        float64 `json:"b"`
}

// comparison is -compare's outcome; with -out it is written next to the
// two runs as a ledger entry.
type comparison struct {
	Rows []compareRow `json:"rows"`
	// ExactDiffs lists exact metrics (simulated statistics, digests
	// aside) that differ; empty for a host-only change.
	ExactDiffs []exactDiff `json:"exact_diffs"`
	// DigestDiffs names the workloads whose result digests differ.
	DigestDiffs []string `json:"digest_diffs"`
	Regressions int      `json:"regressions"`
	Unresolved  int      `json:"unresolved"`
}

func compareResults(a, b *result, bounds map[string]float64) comparison {
	var c comparison
	for i := range a.Workloads {
		wa := &a.Workloads[i]
		var wb *workloadResult
		for j := range b.Workloads {
			if b.Workloads[j].Name == wa.Name {
				wb = &b.Workloads[j]
			}
		}
		if wb == nil {
			continue
		}
		for _, m := range reported {
			sa, okA := wa.EndToEnd[m.Name]
			sb, okB := wb.EndToEnd[m.Name]
			if !okA && !okB {
				continue // not defined on this workload
			}
			row := compareRow{Workload: wa.Name, Metric: m.Name, Unit: m.Unit, A: sa, B: sb}
			if okA != okB {
				row.Verdict = verdictMissing
			} else {
				row.Tol = tolerance(m.Name, sa.Median, bounds)
				if sa.Median != 0 {
					row.DeltaPct = 100 * (sb.Median - sa.Median) / sa.Median
				}
				row.Verdict = judge(sa, sb, row.Tol)
			}
			switch row.Verdict {
			case verdictRegression, verdictMissing:
				c.Regressions++
			case verdictUnresolved:
				c.Unresolved++
			}
			c.Rows = append(c.Rows, row)
		}
		if wa.Digest != wb.Digest {
			c.DigestDiffs = append(c.DigestDiffs, wa.Name)
		}
		for _, m := range layers {
			va, vb := layerValue(wa, m.Name), layerValue(wb, m.Name)
			if m.Exact && va != vb {
				c.ExactDiffs = append(c.ExactDiffs, exactDiff{wa.Name, m.Name, va, vb})
			}
		}
	}
	return c
}

func compareFiles(w io.Writer, pathA, pathB, out string) int {
	var decl benchmarkDecl
	var a, b result
	err := readJSON(benchmarkFile, &decl)
	if err == nil {
		err = readJSON(pathA, &a)
	}
	if err == nil {
		err = readJSON(pathB, &b)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	bounds := map[string]float64{}
	for _, m := range decl.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	if a.Host != b.Host {
		fmt.Fprintf(w, "note: hosts differ (%+v vs %+v); times from different hosts do not compare\n", a.Host, b.Host)
	}
	if a.Seed != b.Seed {
		fmt.Fprintf(w, "note: seeds differ (%d vs %d); exact metrics are expected to differ\n", a.Seed, b.Seed)
	}
	c := compareResults(&a, &b, bounds)
	fmt.Fprintf(w, "%-15s %-18s %12s %12s %8s %10s  %s\n", "workload", "metric", "A median", "B median", "delta", "tolerance", "verdict")
	for _, r := range c.Rows {
		fmt.Fprintf(w, "%-15s %-18s %12.6g %12.6g %+7.2f%% %10.4g  %s  (A %.6g..%.6g n=%d, B %.6g..%.6g n=%d %s)\n",
			r.Workload, r.Metric, r.A.Median, r.B.Median, r.DeltaPct, r.Tol, r.Verdict,
			r.A.Min, r.A.Max, r.A.N, r.B.Min, r.B.Max, r.B.N, r.Unit)
	}
	for _, d := range c.ExactDiffs {
		fmt.Fprintf(w, "exact metric differs: %-15s %-28s A %.10g  B %.10g\n", d.Workload, d.Metric, d.A, d.B)
	}
	for _, name := range c.DigestDiffs {
		fmt.Fprintf(w, "result digest differs: %s\n", name)
	}
	fmt.Fprintf(w, "%d rows, %d regressions, %d unresolved, %d exact metrics differ, %d digests differ\n",
		len(c.Rows), c.Regressions, c.Unresolved, len(c.ExactDiffs), len(c.DigestDiffs))
	if out != "" {
		entry := struct {
			Schema  string     `json:"schema"`
			Claim   *string    `json:"claim"`
			A       *result    `json:"a"`
			B       *result    `json:"b"`
			Compare comparison `json:"compare"`
		}{Schema: schema, A: &a, B: &b, Compare: c}
		if err := writeJSON(out, &entry); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if c.Regressions > 0 {
		return 1
	}
	return 0
}

package main

import (
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// metric declares one reported number. The declarations below are the
// single list the printer, the result JSON, -compare and BENCHMARK.json
// agree on (a test pins BENCHMARK.json against them).
type metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher", as BENCHMARK.json spells it
	// Exact marks a simulated statistic: deterministic for a seed, so
	// two runs of the same code must report the same value and -compare
	// checks it for equality instead of against a bound.
	Exact bool
}

// endToEnd are the host costs defined on every workload; their bounds
// live in BENCHMARK.json.
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "wall_s", Unit: "s", Better: "lower"},
	{Name: "cpu_s", Unit: "s", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
}

// scoped are end-to-end metrics that exist on some workloads only:
// the first two need counters read inside the simulating process, which
// paper_suite (an external mirabench) does not expose, and paper_gap_pp
// needs the paper's figures, which only paper_suite regenerates.
// BENCHMARK.json wants every end_to_end metric non-zero on every
// workload with one relative bound, so it lists these under per_layer
// (0 = not defined here) and -compare applies the bounds below.
var scoped = []metric{
	{Name: "ns_per_flit_hop", Unit: "ns", Better: "lower"},
	{Name: "allocs_per_kcycle", Unit: "1", Better: "lower"},
	{Name: "paper_gap_pp", Unit: "pp", Better: "lower", Exact: true},
}

// reported is the end-to-end block of a workload's report; layers is the
// per_layer list of BENCHMARK.json.
var (
	reported = slices.Concat(endToEnd, scoped)
	layers   = slices.Concat(scoped, perLayer)
)

// scopedBound is how far a scoped metric's median may worsen: a share
// of the baseline, or for paper_gap_pp an absolute number of points.
// ns_per_flit_hop is wall_s over an exact count and takes wall_s's bound.
var scopedBound = map[string]struct {
	Rel, Abs float64
}{
	"allocs_per_kcycle": {Rel: 0.02},
	"paper_gap_pp":      {Abs: 0.5},
}

// setupFloorS is the absolute slack on setup_s: a 2 ms elaboration that
// becomes 3 ms is not a regression anyone pays for.
const setupFloorS = 0.05

// perLayer lists the traced pass's metrics, layer by layer (layer =
// module name before the dot). Every workload reports every name; a
// layer a workload does not use reads 0.
var perLayer = []metric{
	{Name: "scenario.decode_s", Unit: "s", Better: "lower"},
	{Name: "scenario.elaborate_s", Unit: "s", Better: "lower"},

	{Name: "gen.generate_s", Unit: "s", Better: "lower"},
	{Name: "gen.calls", Unit: "count", Better: "lower", Exact: true},
	{Name: "gen.packets", Unit: "count", Better: "higher", Exact: true},

	{Name: "noc.step_s", Unit: "s", Better: "lower"},
	{Name: "noc.step_ns_per_cycle", Unit: "ns", Better: "lower"},
	{Name: "noc.enqueue_s", Unit: "s", Better: "lower"},
	{Name: "noc.flit_hops", Unit: "count", Better: "higher", Exact: true},
	{Name: "noc.sa_grant_ratio", Unit: "1", Better: "higher", Exact: true},
	{Name: "noc.va_grant_ratio", Unit: "1", Better: "higher", Exact: true},
	{Name: "noc.credit_stalls", Unit: "count", Better: "lower", Exact: true},
	{Name: "noc.ser_stalls", Unit: "count", Better: "lower", Exact: true},
	{Name: "noc.d2d_flits", Unit: "count", Better: "higher", Exact: true},

	{Name: "sim.eject_s", Unit: "s", Better: "lower"},
	{Name: "sim.cycles", Unit: "cycles", Better: "lower", Exact: true},
	{Name: "sim.drain_tail_cycles", Unit: "cycles", Better: "lower", Exact: true},
	{Name: "sim.stalled", Unit: "1", Better: "lower", Exact: true},
	{Name: "sim.packets_ejected", Unit: "count", Better: "higher", Exact: true},
	{Name: "sim.avg_latency_cycles", Unit: "cycles", Better: "lower", Exact: true},
	{Name: "sim.p99_latency_cycles", Unit: "cycles", Better: "lower", Exact: true},
	{Name: "sim.throughput_fpc", Unit: "flits/node/cycle", Better: "higher", Exact: true},

	{Name: "shard.busy_s", Unit: "s", Better: "lower"},
	{Name: "shard.drain_s", Unit: "s", Better: "lower"},
	{Name: "shard.barrier_s", Unit: "s", Better: "lower"},
	{Name: "shard.utilization", Unit: "1", Better: "higher"},
	{Name: "shard.imbalance_ratio", Unit: "1", Better: "lower"},
	{Name: "shard.mailbox_flits", Unit: "count", Better: "lower", Exact: true},
	{Name: "shard.mailbox_credits", Unit: "count", Better: "lower", Exact: true},
	{Name: "shard.speedup_vs_seq", Unit: "1", Better: "higher"},

	{Name: "collective.deliver_s", Unit: "s", Better: "lower"},
	{Name: "collective.iterations_done", Unit: "count", Better: "higher", Exact: true},
	{Name: "collective.iteration_cycles", Unit: "cycles", Better: "lower", Exact: true},

	{Name: "obs.probe_s", Unit: "s", Better: "lower"},
	{Name: "obs.probe_events", Unit: "count", Better: "lower", Exact: true},
	{Name: "obs.oncycle_s", Unit: "s", Better: "lower"},
	{Name: "obs.close_s", Unit: "s", Better: "lower"},
	{Name: "obs.trace_bytes", Unit: "B", Better: "lower", Exact: true},
	{Name: "obs.spans", Unit: "count", Better: "lower", Exact: true},

	{Name: "exp.static_s", Unit: "s", Better: "lower"},
	{Name: "exp.cmp_profiles_s", Unit: "s", Better: "lower"},
	{Name: "exp.fig8_s", Unit: "s", Better: "lower"},
	{Name: "exp.fig11_s", Unit: "s", Better: "lower"},
	{Name: "exp.fig12_s", Unit: "s", Better: "lower"},
	{Name: "exp.fig13_s", Unit: "s", Better: "lower"},
	{Name: "exp.ablation_s", Unit: "s", Better: "lower"},
	{Name: "exp.ext_s", Unit: "s", Better: "lower"},
	{Name: "exp.obs_s", Unit: "s", Better: "lower"},
	{Name: "exp.worker_utilization", Unit: "1", Better: "higher"},

	{Name: "bench.timer_ns", Unit: "ns", Better: "lower"},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
}

// stat summarises the repetitions of one timing. With 2 to 8
// repetitions there is no tail percentile to report: a percentile needs
// ten samples beyond it.
type stat struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func summarize(unit string, v []float64) stat {
	if len(v) == 0 {
		return stat{Unit: unit}
	}
	return stat{Unit: unit, Median: median(v), Min: slices.Min(v), Max: slices.Max(v), N: len(v)}
}

// digest hashes a noc.Result's JSON independent of field order and
// with "stalled" removed: sharded runs end in the stall watchdog with
// every packet delivered (see README, "Sharded drain"), and the flag is
// reported as sim.stalled instead of failing the twin check.
func digest(resultJSON []byte) (string, error) {
	var m map[string]any
	if err := json.Unmarshal(resultJSON, &m); err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	delete(m, "stalled")
	canon, err := json.Marshal(m) // map keys marshal sorted
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	return shortHash(canon), nil
}

// shortHash is enough of a SHA-256 to tell two outcomes apart.
func shortHash(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}

// Paper headline ratios paper_gap_pp is measured against (MIRA §5):
// 3DM-E cuts latency by 26 % against 3DB under uniform random traffic
// at 0.30 flits/node/cycle, and by 38 % against 2DB on average over the
// multiprocessor traces.
const (
	paperFig11aPct = 26.0
	paperFig11cPct = 38.0
)

// csvTable returns the records of one table of mirabench -csv output:
// a "# id" line, the CSV body, a blank line.
func csvTable(out, id string) ([][]string, error) {
	_, rest, ok := strings.Cut("\n"+out, "\n# "+id+"\n")
	if !ok {
		return nil, fmt.Errorf("table %s: not in the output", id)
	}
	body, _, _ := strings.Cut(rest, "\n# ")
	r := csv.NewReader(strings.NewReader(body))
	r.FieldsPerRecord = -1
	rows, err := r.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("table %s: %w", id, err)
	}
	return rows, nil
}

// column returns the index of a header cell.
func column(rows [][]string, table, name string) (int, error) {
	if len(rows) > 0 {
		if i := slices.Index(rows[0], name); i >= 0 {
			return i, nil
		}
	}
	return 0, fmt.Errorf("table %s: no column %q", table, name)
}

// paperGapPP parses mirabench -csv output and returns the larger
// distance, in percentage points, between the simulated and the
// paper's latency reductions.
func paperGapPP(out string) (float64, error) {
	a, err := csvTable(out, "fig11a")
	if err != nil {
		return 0, err
	}
	c, err := csvTable(out, "fig11c")
	if err != nil {
		return 0, err
	}
	cell := func(rows [][]string, table string, r int, col string) (float64, error) {
		i, err := column(rows, table, col)
		if err != nil {
			return 0, err
		}
		if i >= len(rows[r]) {
			return 0, fmt.Errorf("table %s: short row %d", table, r)
		}
		return strconv.ParseFloat(rows[r][i], 64)
	}

	row := slices.IndexFunc(a, func(r []string) bool { return len(r) > 0 && r[0] == "0.30" })
	if row < 0 {
		return 0, fmt.Errorf("table fig11a: no row for rate 0.30")
	}
	base, err := cell(a, "fig11a", row, "3DB")
	if err != nil {
		return 0, err
	}
	mira, err := cell(a, "fig11a", row, "3DM-E")
	if err != nil {
		return 0, err
	}
	gapA := math.Abs(100*(1-mira/base) - paperFig11aPct)

	if len(c) < 2 {
		return 0, fmt.Errorf("table fig11c: no rows")
	}
	var sum float64
	for r := 1; r < len(c); r++ {
		norm, err := cell(c, "fig11c", r, "3DM-E") // already normalised to 2DB
		if err != nil {
			return 0, err
		}
		sum += norm
	}
	gapC := math.Abs(100*(1-sum/float64(len(c)-1)) - paperFig11cPct)
	return max(gapA, gapC), nil
}

// expGroup maps a mirabench experiment id to its exp.* per-layer metric.
func expGroup(id string) string {
	switch {
	case id == "fig1", id == "fig2", id == "fig13a":
		return "exp.cmp_profiles_s"
	case strings.HasPrefix(id, "table"), id == "fig3", id == "fig9", id == "fig10":
		return "exp.static_s"
	case id == "fig8":
		return "exp.fig8_s"
	case strings.HasPrefix(id, "fig11"):
		return "exp.fig11_s"
	case strings.HasPrefix(id, "fig12"):
		return "exp.fig12_s"
	case strings.HasPrefix(id, "fig13"):
		return "exp.fig13_s"
	case strings.HasPrefix(id, "ablation-"):
		return "exp.ablation_s"
	case strings.HasPrefix(id, "ext-"):
		return "exp.ext_s"
	case strings.HasPrefix(id, "obs-"):
		return "exp.obs_s"
	}
	return ""
}

// expSeconds folds one mirabench -timing file into seconds per exp.*
// group; an experiment no group claims is an error, so a new mirabench
// experiment cannot silently fall out of the layer table.
func expSeconds(timingJSON []byte) (map[string]float64, error) {
	var rep struct {
		Experiments []struct {
			ID      string  `json:"id"`
			Seconds float64 `json:"seconds"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal(timingJSON, &rep); err != nil {
		return nil, fmt.Errorf("timing file: %w", err)
	}
	groups := map[string]float64{}
	for _, e := range rep.Experiments {
		g := expGroup(e.ID)
		if g == "" {
			return nil, fmt.Errorf("timing file: experiment %q belongs to no exp.* group", e.ID)
		}
		groups[g] += e.Seconds
	}
	return groups, nil
}

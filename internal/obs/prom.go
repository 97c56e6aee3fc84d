package obs

import (
	"fmt"
	"io"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text exposition (format version 0.0.4), hand-rolled over
// the metric registry: the internal dotted names map onto the
// prometheus naming conventions, with per-router and per-VC series
// folded into labels instead of distinct metric names:
//
//	net.occ                 -> mira_net_occ
//	net.active_layers       -> mira_net_active_layers
//	r5.credit_stalls        -> mira_router_credit_stalls{router="5"}
//	r5.p2.vc1.occ           -> mira_router_vc_occ{router="5",port="2",vc="1"}
//
// Every sampled value is exposed as a gauge (counters are already
// per-window deltas by the time the sampler stores them). The writer
// emits families sorted by metric name and, within a family, samples in
// label order, so identical samples always render identical bytes.

var (
	routerMetricRe = regexp.MustCompile(`^r(\d+)\.([a-z_]+)$`)
	vcMetricRe     = regexp.MustCompile(`^r(\d+)\.p(\d+)\.vc(\d+)\.([a-z_]+)$`)
)

// PromSample is one exposition line: a metric name, ordered label
// pairs, and a value.
type PromSample struct {
	Name   string
	Labels [][2]string
	Value  float64
}

// promName converts an internal registry metric name to its prometheus
// form. extra labels (e.g. the run index) are prepended to every
// sample.
func promName(name string, extra [][2]string) PromSample {
	s := PromSample{Labels: append([][2]string{}, extra...)}
	if m := vcMetricRe.FindStringSubmatch(name); m != nil {
		s.Name = "mira_router_vc_" + m[4]
		s.Labels = append(s.Labels,
			[2]string{"router", m[1]}, [2]string{"port", m[2]}, [2]string{"vc", m[3]})
		return s
	}
	if m := routerMetricRe.FindStringSubmatch(name); m != nil {
		s.Name = "mira_router_" + m[2]
		s.Labels = append(s.Labels, [2]string{"router", m[1]})
		return s
	}
	s.Name = "mira_" + strings.NewReplacer(".", "_").Replace(name)
	return s
}

// PromSamples converts one sampler row (metric names in registration
// order plus their values) into exposition samples, attaching extra
// labels to each.
func PromSamples(names []string, row []float64, extra [][2]string) []PromSample {
	out := make([]PromSample, 0, len(names))
	for i, n := range names {
		if i >= len(row) {
			break
		}
		s := promName(n, extra)
		s.Value = row[i]
		out = append(out, s)
	}
	return out
}

// render writes one sample line.
func (s PromSample) render(w io.Writer) error {
	var sb strings.Builder
	sb.WriteString(s.Name)
	if len(s.Labels) > 0 {
		sb.WriteByte('{')
		for i, l := range s.Labels {
			if i > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "%s=%q", l[0], l[1])
		}
		sb.WriteByte('}')
	}
	sb.WriteByte(' ')
	sb.WriteString(strconv.FormatFloat(s.Value, 'g', -1, 64))
	sb.WriteByte('\n')
	_, err := io.WriteString(w, sb.String())
	return err
}

// labelKey orders samples within a family deterministically.
func (s PromSample) labelKey() string {
	var sb strings.Builder
	for _, l := range s.Labels {
		// Numeric label values sort numerically (router 2 before 10).
		if n, err := strconv.Atoi(l[1]); err == nil {
			fmt.Fprintf(&sb, "%s=%012d;", l[0], n)
		} else {
			fmt.Fprintf(&sb, "%s=%s;", l[0], l[1])
		}
	}
	return sb.String()
}

// promHelp holds the HELP text of every first-class family. Families
// not listed (e.g. ablation-specific gauges that map through the
// generic name path) fall back to a generated line, so the exposition
// lint's every-family-has-HELP invariant holds regardless.
var promHelp = map[string]string{
	"mira_net_occ":           "Flits buffered in routers at the sample window boundary.",
	"mira_net_backlog":       "Total backlog (queued + in-flight flits) at the window boundary.",
	"mira_net_credit_stalls": "Credit-stall events during the sample window.",
	"mira_net_link_flits":    "Flits crossing inter-router links during the sample window.",
	"mira_net_express_flits": "Flits carried by express channels during the sample window.",
	"mira_net_vertical_flits": "Flits crossing vertical (inter-die) links during the sample " +
		"window.",
	"mira_net_active_layers": "Mean datapath layers awake per crossbar traversal during the " +
		"window.",
	"mira_router_occ":           "Per-router buffered flits at the window boundary.",
	"mira_router_credit_stalls": "Per-router credit-stall events during the sample window.",
	"mira_router_vc_occ":        "Per-VC buffered flits at the window boundary.",
	"mira_run_cycle":            "Latest sampled simulation cycle of the run.",
	"mira_runs":                 "Batch runs by state.",

	"mira_engine_cycles_total":      "Simulated cycles stepped by the engine.",
	"mira_engine_cycles_per_second": "EMA-smoothed engine throughput in simulated cycles per wall second.",
	"mira_engine_eta_seconds":       "Estimated wall seconds until the measurement window completes (0 = draining or done).",
	"mira_engine_shard_busy_seconds": "Wall time the shard's worker spent stepping its routers " +
		"(drain + inject + pipeline stages).",
	"mira_engine_shard_drain_seconds":   "Wall time the shard spent in the delivery/mailbox-drain phase.",
	"mira_engine_shard_barrier_seconds": "Wall time the shard spent parked at the cycle barrier waiting for slower shards.",
	"mira_engine_shard_imbalance_ratio": "Max/mean per-shard busy time; 1.0 is perfectly balanced.",
	"mira_engine_mailbox_flits_total":   "Flits drained from the (src,dst) boundary mailbox.",
	"mira_engine_mailbox_credits_total": "Credits drained from the (src,dst) boundary mailbox.",
	"mira_engine_pool_workers":          "Shard worker pool size (1 = sequential stepping).",
	"mira_engine_pool_utilization":      "Fraction of pool capacity spent doing shard work (busy / (workers x step wall time)).",
	"mira_engine_pool_parks_total":      "Barrier waits that exhausted the spin budget and blocked (each costs a scheduler wake-up).",
	"mira_engine_heap_bytes":            "Go heap in use (runtime.MemStats.HeapAlloc).",
	"mira_engine_goroutines":            "Live goroutines in the simulator process.",
	"mira_engine_gc_total":              "Completed garbage-collection cycles.",
	"mira_engine_gc_pause_seconds_total": "Cumulative stop-the-world garbage-collection pause " +
		"time.",
}

// promCounterFamily marks cumulative families that do not carry the
// conventional _total suffix (per-shard wall-time totals keep the name
// the dashboards read naturally).
var promCounterFamily = map[string]bool{
	"mira_engine_shard_busy_seconds":    true,
	"mira_engine_shard_drain_seconds":   true,
	"mira_engine_shard_barrier_seconds": true,
}

// promFamilyMeta returns the TYPE and HELP line content for a family:
// counters are the _total-suffixed families plus the explicit counter
// set; everything else is a gauge (sampled levels and per-window
// deltas).
func promFamilyMeta(f string) (typ, help string) {
	typ = "gauge"
	if strings.HasSuffix(f, "_total") || promCounterFamily[f] {
		typ = "counter"
	}
	help, ok := promHelp[f]
	if !ok {
		help = "MIRA simulator metric " + f + "."
	}
	return typ, help
}

// WriteProm renders samples in the prometheus text exposition format:
// families sorted by name, each led by # HELP and # TYPE lines, samples
// within a family sorted by labels.
func WriteProm(w io.Writer, samples []PromSample) error {
	byFamily := map[string][]PromSample{}
	for _, s := range samples {
		byFamily[s.Name] = append(byFamily[s.Name], s)
	}
	families := make([]string, 0, len(byFamily))
	for f := range byFamily {
		families = append(families, f)
	}
	sort.Strings(families)
	for _, f := range families {
		typ, help := promFamilyMeta(f)
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f, help, f, typ); err != nil {
			return err
		}
		fam := byFamily[f]
		sort.SliceStable(fam, func(a, b int) bool { return fam[a].labelKey() < fam[b].labelKey() })
		for _, s := range fam {
			if err := s.render(w); err != nil {
				return err
			}
		}
	}
	return nil
}

package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text exposition (format version 0.0.4), hand-rolled over
// the metric registry. Each registry metric carries its family and
// labels from registration (Metric), so per-router and per-VC series
// are labels of one family instead of distinct metric names:
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

// PromSample is one exposition line: a metric name, ordered label
// pairs, and a value.
type PromSample struct {
	Name   string
	Labels [][2]string
	Value  float64
}

// PromSamples converts one sampler row (values in registration order)
// into exposition samples, attaching extra labels to each. Metrics
// without a family (the engine.* columns) are left out.
func (g *Registry) PromSamples(row []float64, extra [][2]string) []PromSample {
	out := make([]PromSample, 0, len(row))
	for i, m := range g.metrics {
		if i >= len(row) {
			break
		}
		if m.Family != "" {
			labels := append(append(make([][2]string, 0, len(extra)+len(m.Labels)), extra...), m.Labels...)
			out = append(out, PromSample{Name: m.Family, Labels: labels, Value: row[i]})
		}
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

// promFamilies holds the TYPE and HELP text of every family the
// exposition can carry: the registry's, the engine collector's and the
// server's own. A family must be listed here to render well-formed.
var promFamilies = map[string]struct{ typ, help string }{
	"mira_net_occ":              {"gauge", "Flits buffered in routers at the sample window boundary."},
	"mira_net_backlog":          {"gauge", "Total backlog (queued + in-flight flits) at the window boundary."},
	"mira_net_credit_stalls":    {"gauge", "Credit-stall events during the sample window."},
	"mira_net_link_flits":       {"gauge", "Flits crossing inter-router links during the sample window."},
	"mira_net_express_flits":    {"gauge", "Flits carried by express channels during the sample window."},
	"mira_net_vertical_flits":   {"gauge", "Flits crossing vertical (inter-die) links during the sample window."},
	"mira_net_active_layers":    {"gauge", "Mean datapath layers awake per crossbar traversal during the window."},
	"mira_router_occ":           {"gauge", "Per-router buffered flits at the window boundary."},
	"mira_router_credit_stalls": {"gauge", "Per-router credit-stall events during the sample window."},
	"mira_router_vc_occ":        {"gauge", "Per-VC buffered flits at the window boundary."},
	"mira_run_cycle":            {"gauge", "Latest sampled simulation cycle of the run."},
	"mira_runs":                 {"gauge", "Batch runs by state."},

	"mira_engine_cycles_total":      {"counter", "Simulated cycles stepped by the engine."},
	"mira_engine_cycles_per_second": {"gauge", "Engine throughput in simulated cycles per wall second since the previous update."},
	"mira_engine_eta_seconds":       {"gauge", "Estimated wall seconds until the measurement window completes (0 = draining or done)."},
	"mira_engine_shard_busy_seconds": {"counter", "Wall time the shard's worker spent stepping its routers " +
		"(drain + inject + pipeline stages)."},
	"mira_engine_shard_drain_seconds":    {"counter", "Wall time the shard spent in the delivery/mailbox-drain phase."},
	"mira_engine_shard_barrier_seconds":  {"counter", "Wall time the shard spent parked at the cycle barrier waiting for slower shards."},
	"mira_engine_shard_imbalance_ratio":  {"gauge", "Max/mean per-shard busy time; 1.0 is perfectly balanced."},
	"mira_engine_mailbox_flits_total":    {"counter", "Flits drained from the (src,dst) boundary mailbox."},
	"mira_engine_mailbox_credits_total":  {"counter", "Credits drained from the (src,dst) boundary mailbox."},
	"mira_engine_pool_workers":           {"gauge", "Shard worker pool size (1 = sequential stepping)."},
	"mira_engine_pool_utilization":       {"gauge", "Fraction of pool capacity spent doing shard work (busy / (workers x step wall time))."},
	"mira_engine_pool_parks_total":       {"counter", "Barrier waits that exhausted the spin budget and blocked (each costs a scheduler wake-up)."},
	"mira_engine_heap_bytes":             {"gauge", "Go heap in use (runtime.MemStats.HeapAlloc)."},
	"mira_engine_goroutines":             {"gauge", "Live goroutines in the simulator process."},
	"mira_engine_gc_total":               {"counter", "Completed garbage-collection cycles."},
	"mira_engine_gc_pause_seconds_total": {"counter", "Cumulative stop-the-world garbage-collection pause time."},
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
		m := promFamilies[f]
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f, m.help, f, m.typ); err != nil {
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

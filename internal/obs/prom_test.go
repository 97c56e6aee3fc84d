package obs

import (
	"context"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"mira/internal/noc"
	"mira/internal/traffic"
)

// TestPromNameMapping checks the Prometheus identity each network
// metric is registered with.
func TestPromNameMapping(t *testing.T) {
	reg := NewRegistry()
	RegisterNetwork(reg, noc.NewNetwork(testConfig()), []int{5})
	samples := reg.PromSamples(make([]float64, reg.Len()), nil)
	cases := []struct {
		in     string
		name   string
		labels string
	}{
		{"net.occ", "mira_net_occ", ""},
		{"net.active_layers", "mira_net_active_layers", ""},
		{"r5.credit_stalls", "mira_router_credit_stalls", `router="5"`},
		{"r12.occ", "mira_router_occ", `router="12"`},
		{"r5.p2.vc1.occ", "mira_router_vc_occ", `router="5",port="2",vc="1"`},
	}
	for _, c := range cases {
		i, ok := reg.byName[c.in]
		if !ok {
			t.Fatalf("%s not registered", c.in)
		}
		s := samples[i]
		if s.Name != c.name {
			t.Errorf("%s: name %q, want %q", c.in, s.Name, c.name)
		}
		var parts []string
		for _, l := range s.Labels {
			parts = append(parts, l[0]+`="`+l[1]+`"`)
		}
		if got := strings.Join(parts, ","); got != c.labels {
			t.Errorf("%s: labels %q, want %q", c.in, got, c.labels)
		}
	}
}

// promLabelRe matches one label pair inside a sample's label block.
var promLabelRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*"$`)

// lintPromExposition is a hand-rolled promtool-style check of the text
// exposition format, line by line: every family opens with a # HELP
// line immediately followed by its # TYPE line (gauge or counter),
// families are sorted, every sample line parses as name{labels} value
// with a float value and well-formed labels, samples sit inside their
// family's block, and no family is empty. Returns family -> type.
func lintPromExposition(t *testing.T, text string) map[string]string {
	t.Helper()
	types := map[string]string{}
	samples := map[string]int{}
	lastFamily, current := "", ""
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	for i := 0; i < len(lines); i++ {
		line := lines[i]
		if help, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, desc, ok := strings.Cut(help, " ")
			if !ok || strings.TrimSpace(desc) == "" {
				t.Fatalf("HELP line without text: %q", line)
			}
			if name <= lastFamily {
				t.Fatalf("families not sorted: %q after %q", name, lastFamily)
			}
			lastFamily = name
			if i+1 >= len(lines) || !strings.HasPrefix(lines[i+1], "# TYPE "+name+" ") {
				t.Fatalf("HELP for %s not immediately followed by its TYPE line", name)
			}
			f := strings.Fields(lines[i+1])
			if len(f) != 4 || (f[3] != "gauge" && f[3] != "counter") {
				t.Fatalf("malformed TYPE line %q", lines[i+1])
			}
			types[name] = f[3]
			current = name
			i++
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unexpected comment line %q", line)
		}
		name, valstr := line, ""
		if j := strings.IndexByte(line, '{'); j >= 0 {
			k := strings.IndexByte(line, '}')
			if k < j || k+1 >= len(line) || line[k+1] != ' ' {
				t.Fatalf("malformed label block in %q", line)
			}
			for _, l := range strings.Split(line[j+1:k], ",") {
				if !promLabelRe.MatchString(l) {
					t.Fatalf("malformed label %q in %q", l, line)
				}
			}
			name, valstr = line[:j], line[k+2:]
		} else {
			var ok bool
			name, valstr, ok = strings.Cut(line, " ")
			if !ok {
				t.Fatalf("malformed sample line %q", line)
			}
		}
		if _, err := strconv.ParseFloat(valstr, 64); err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		if name != current {
			t.Fatalf("sample %q outside its family block (current %q)", line, current)
		}
		samples[name]++
	}
	for f := range types {
		if samples[f] == 0 {
			t.Fatalf("family %s declared but has no samples", f)
		}
	}
	return types
}

// TestPromExposition renders a live sampler row and lints the text
// format end to end; extra labels must land on every sample.
func TestPromExposition(t *testing.T) {
	nc := testConfig()
	net := noc.NewNetwork(nc)
	c := New(net, Config{Window: 100, PerVCNodes: []int{5}})
	sim := noc.NewSim(net, &traffic.Uniform{Topo: nc.Topo, InjectionRate: 0.1, PacketSize: 4})
	sim.Params = noc.SimParams{Warmup: 0, Measure: 600, DrainMax: 3000}
	c.Attach(sim)
	sim.Run(context.Background())
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	_, row, ok := c.Sampler().Latest()
	if !ok {
		t.Fatal("no samples")
	}
	samples := c.Registry().PromSamples(row, [][2]string{{"run", "0"}})
	var sb strings.Builder
	if err := WriteProm(&sb, samples); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	text := sb.String()
	types := lintPromExposition(t, text)
	if types["mira_net_occ"] != "gauge" {
		t.Errorf("mira_net_occ type %q, want gauge", types["mira_net_occ"])
	}
	if !strings.Contains(text, `mira_router_vc_occ{run="0",router="5",port="0",vc="0"} `) {
		t.Errorf("missing per-VC sample:\n%s", text)
	}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if !strings.HasPrefix(line, "#") && !strings.Contains(line, `run="0"`) {
			t.Fatalf("sample %q missing extra label", line)
		}
	}

	// Determinism: the same row renders the same bytes.
	var sb2 strings.Builder
	if err := WriteProm(&sb2, c.Registry().PromSamples(row, [][2]string{{"run", "0"}})); err != nil {
		t.Fatal(err)
	}
	if sb2.String() != text {
		t.Error("exposition not deterministic")
	}
}

// TestPromEngineExpositionLint is the golden exposition check over the
// full family set: the existing network/router gauges plus the
// mira_engine_* families from a sharded engine-telemetry run, rendered
// together the way /metrics serves them, must pass the promtool-style
// lint, and the engine counters must be typed counter.
func TestPromEngineExpositionLint(t *testing.T) {
	nc := testConfig()
	nc.Shards = 4
	net := noc.NewNetwork(nc)
	c := New(net, Config{Window: 100, Engine: true})
	sim := noc.NewSim(net, &traffic.Uniform{Topo: nc.Topo, InjectionRate: 0.1, PacketSize: 4})
	sim.Params = noc.SimParams{Warmup: 0, Measure: 2000, DrainMax: 3000}
	c.Attach(sim)
	sim.Run(context.Background())
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if c.Engine() == nil {
		t.Fatal("Config.Engine did not attach an engine collector")
	}

	_, row, ok := c.Sampler().Latest()
	if !ok {
		t.Fatal("no samples")
	}
	extra := [][2]string{{"run", "0"}}
	samples := c.Registry().PromSamples(row, extra)
	samples = append(samples, c.Engine().PromSamples(extra)...)
	var sb strings.Builder
	if err := WriteProm(&sb, samples); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	types := lintPromExposition(t, sb.String())
	wantCounter := []string{
		"mira_engine_cycles_total", "mira_engine_shard_busy_seconds",
		"mira_engine_shard_drain_seconds", "mira_engine_shard_barrier_seconds",
		"mira_engine_mailbox_flits_total", "mira_engine_mailbox_credits_total",
		"mira_engine_pool_parks_total", "mira_engine_gc_total", "mira_engine_gc_pause_seconds_total",
	}
	for _, f := range wantCounter {
		if types[f] != "counter" {
			t.Errorf("family %s type %q, want counter", f, types[f])
		}
	}
	wantGauge := []string{
		"mira_engine_cycles_per_second", "mira_engine_eta_seconds",
		"mira_engine_shard_imbalance_ratio", "mira_engine_pool_workers",
		"mira_engine_pool_utilization", "mira_engine_heap_bytes",
		"mira_engine_goroutines",
	}
	for _, f := range wantGauge {
		if types[f] != "gauge" {
			t.Errorf("family %s type %q, want gauge", f, types[f])
		}
	}
}

// TestSamplerFinalPartialWindow: a run shorter than the window still
// produces a series row, flagged partial; a boundary-aligned run gains
// no duplicate row from Finish.
func TestSamplerFinalPartialWindow(t *testing.T) {
	nc := testConfig()
	net := noc.NewNetwork(nc)
	c := New(net, Config{Window: 10000}) // longer than the whole run
	sim := noc.NewSim(net, &traffic.Uniform{Topo: nc.Topo, InjectionRate: 0.1, PacketSize: 4})
	sim.Params = noc.SimParams{Warmup: 0, Measure: 600, DrainMax: 3000}
	c.Attach(sim)
	sim.Run(context.Background())
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	tbl := c.Sampler().Table()
	if len(tbl.Rows) != 1 {
		t.Fatalf("short run produced %d rows, want exactly the partial one", len(tbl.Rows))
	}
	row := tbl.Rows[0]
	if row[len(row)-1] != "1" {
		t.Errorf("trailing window not flagged partial: %v", row)
	}
	// Close is idempotent: no duplicate partial row.
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if n := len(c.Sampler().Table().Rows); n != 1 {
		t.Errorf("second Close added rows: %d", n)
	}

	// Direct sampler check: Final on an exact boundary is a no-op.
	reg := NewRegistry()
	reg.Gauge(Metric{Name: "x"}, func() float64 { return 1 })
	s := NewSampler(reg, 100)
	s.OnCycle(100)
	s.Final(100)
	if s.Samples() != 1 {
		t.Errorf("Final duplicated a boundary sample: %d rows", s.Samples())
	}
	s.Final(130)
	if s.Samples() != 2 {
		t.Errorf("Final did not emit the partial window: %d rows", s.Samples())
	}
	tb := s.Table()
	if got := tb.Rows[1]; got[0] != "130" || got[len(got)-1] != "1" {
		t.Errorf("partial row wrong: %v", got)
	}
	if got := tb.Rows[0]; got[len(got)-1] != "0" {
		t.Errorf("full row flagged partial: %v", got)
	}
}

// Command miratrace generates and inspects NUCA coherence traces (the
// reproduction's stand-in for the paper's Simics-generated MP traces),
// and inspects JSONL flit-event traces recorded by the observability
// layer (mirasim -trace). Generation goes through the declarative
// scenario layer, and so does replay, which is a mirasim run:
// mirasim -set arch=2DB -set 'traffic={"kind":"replay","trace_file":"tpcw.trace"}'.
//
// Usage:
//
//	miratrace gen -workload tpcw -cycles 30000 -arch 2DB -o tpcw.trace
//	miratrace stat tpcw.trace
//	miratrace flits run.jsonl
//	miratrace spans run.jsonl
//	miratrace spans -perfetto run.perfetto.json run.jsonl
//	miratrace spans -heatmap congestion.csv -svg congestion.svg run.jsonl
//
// Traces are tied to the node numbering of the architecture they were
// generated for; replay an -arch trace on the same arch.
//
// "flits" verifies a flit-event trace (parse, cycle ordering, per-flit
// inject-before-eject protocol) and recomputes the recorded run's
// per-flit latency statistics from the file alone; on an unfiltered
// trace they match the live collector's digest byte for byte. Traces
// recorded with a node/class filter fail strict verification by design
// (per-flit streams are partial); the stats then cover the matched
// inject/eject pairs only.
//
// "spans" folds an unfiltered trace into per-flit, per-hop latency
// spans and prints the stage-level attribution table (queue wait, route,
// VA stall, SA stall, ST+LT cycles by router, traffic class, hop count
// and datapath layer; the stage cycles of every flit sum exactly to its
// measured network latency). -perfetto exports the spans as a Chrome
// trace-event JSON file — open it in Perfetto (ui.perfetto.dev) or
// chrome://tracing; each router is a process track and concurrent flit
// visits occupy separate lanes. -engine FILE additionally renders the
// engine.* columns of a series CSV (mirasim -series with -progress or
// -enginestats) as counter tracks — per-shard busy time per cycle,
// cycles/sec, shard imbalance — on a dedicated process in the same
// export, timestamped by simulated cycle so host-side shard cost lines
// up under the flit activity that caused it. -heatmap writes the
// per-router, per-window congestion matrix (stalled-flit cycles) as
// CSV, -svg as a rendered heatmap.
//
// Diagnostics go to stderr as log/slog structured logs (-loglevel,
// -logjson after the subcommand); result output stays on stdout.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"

	"mira/internal/cli"
	"mira/internal/noc"
	"mira/internal/obs"
	"mira/internal/plot"
	"mira/internal/scenario"
	"mira/internal/traffic"
)

func main() {
	if err := cli.Setup(cli.LogFlags{}); err != nil {
		fmt.Fprintf(os.Stderr, "miratrace: %v\n", err)
		os.Exit(2)
	}
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:])
	case "stat":
		err = cmdStat(os.Args[2:])
	case "flits":
		err = cmdFlits(os.Args[2:])
	case "spans":
		err = cmdSpans(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		cli.Fatal("miratrace", err)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  miratrace gen -workload NAME -cycles N [-arch 2DB] [-seed N] -o FILE
  miratrace stat FILE
  miratrace flits [-json] FILE.jsonl
  miratrace spans [-group G] [-json] [-perfetto F] [-engine F] [-heatmap F] [-svg F] FILE.jsonl`)
}

// parseWithLogging parses fs with the standard logging flags registered
// and installs the slog handler they describe.
func parseWithLogging(fs *flag.FlagSet, args []string) error {
	var logf cli.LogFlags
	cli.RegisterFlags(fs, &logf)
	if err := fs.Parse(args); err != nil {
		return err
	}
	return cli.Setup(logf)
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	workload := fs.String("workload", "tpcw", "workload name")
	cycles := fs.Int64("cycles", 30000, "CPU cycles to simulate")
	archName := fs.String("arch", "2DB", "architecture whose node numbering to use")
	seed := fs.Int64("seed", 1, "generation seed")
	out := fs.String("o", "", "output file (default stdout)")
	if err := parseWithLogging(fs, args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		cli.Usage("miratrace gen", fmt.Errorf("unexpected argument %q (name the workload with -workload, the output with -o)", fs.Arg(0)))
	}
	// Elaborating a "trace" scenario generates the trace; the windows are
	// irrelevant here (the NoC sim is never run) but must be valid.
	sc := scenario.Scenario{
		Arch:    *archName,
		Warmup:  0,
		Measure: *cycles,
		Seed:    *seed,
		Traffic: scenario.Traffic{Kind: "trace", Workload: *workload, TraceCycles: *cycles},
	}
	e, err := sc.Elaborate()
	if err != nil {
		return err
	}
	dst := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		dst = f
	}
	if _, err := e.Trace.WriteTo(dst); err != nil {
		return err
	}
	slog.Info("generated trace", "packets", len(e.Trace.Events), "flits", e.Trace.Flits(),
		"short_pct", fmt.Sprintf("%.1f", e.Stats.ShortFlitPct()), "cycles", e.Trace.Span())
	return nil
}

func loadTrace(path string) (*traffic.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return traffic.ReadTrace(f)
}

func cmdStat(args []string) error {
	fs := flag.NewFlagSet("stat", flag.ExitOnError)
	if err := parseWithLogging(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("stat needs exactly one trace file")
	}
	tr, err := loadTrace(fs.Arg(0))
	if err != nil {
		return err
	}
	fmt.Printf("name            : %s\n", tr.Name)
	fmt.Printf("packets         : %d\n", len(tr.Events))
	fmt.Printf("flits           : %d\n", tr.Flits())
	fmt.Printf("span            : %d cycles\n", tr.Span())
	fmt.Printf("offered load    : %.4f flits/node/cycle (36 nodes)\n", tr.InjectionRate(36))
	fmt.Printf("short flits     : %.1f%%\n", tr.ShortFlitPercent())
	for class, share := range tr.ClassShares() {
		fmt.Printf("class %-9s : %.1f%%\n", class, 100*share)
	}
	return nil
}

// cmdFlits verifies and summarizes a JSONL flit-event trace recorded by
// the observability layer (mirasim -trace).
func cmdFlits(args []string) error {
	fs := flag.NewFlagSet("flits", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit the recomputed latency stats as JSON")
	if err := parseWithLogging(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("flits needs exactly one trace file")
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	// One streaming pass. A filtered trace is partial per flit: Replay
	// then reports the violation next to the stats of the matched
	// inject/eject pairs.
	sum, verifyErr := obs.Replay(f)
	if verifyErr != nil && !errors.Is(verifyErr, obs.ErrFlitProtocol) {
		return verifyErr
	}
	stats := sum.Latency
	if *asJSON {
		fmt.Printf("%s\n", stats.JSON())
	} else {
		var total int64
		var kinds string
		for k := noc.ProbeKind(0); k < noc.NumProbeKinds; k++ {
			total += sum.Events[k.String()]
			kinds += fmt.Sprintf("  %s=%d", k, sum.Events[k.String()])
		}
		fmt.Printf("events   : %d%s\n", total, kinds)
		fmt.Printf("flits    : %d (lat mean %.2f, p50/p95/p99 = %d/%d/%d, max %d)\n",
			stats.Flits, stats.FlitMean, stats.FlitP50, stats.FlitP95, stats.FlitP99, stats.FlitMax)
		fmt.Printf("packets  : %d (lat mean %.2f, p99 = %d, max %d)\n",
			stats.Packets, stats.PacketMean, stats.PacketP99, stats.PacketMax)
		for class, n := range stats.PerClass {
			fmt.Printf("  %-7s: %d packets\n", class, n)
		}
	}
	if verifyErr != nil {
		slog.Warn("trace is partial; stats cover matched flits only", "err", verifyErr)
	} else {
		slog.Info("trace verified: per-flit protocol consistent, replay deterministic")
	}
	return nil
}

// cmdSpans folds a flit-event trace into per-flit spans, prints the
// stage-latency attribution and optionally exports Perfetto JSON and
// the congestion heatmap.
func cmdSpans(args []string) error {
	fs := flag.NewFlagSet("spans", flag.ExitOnError)
	group := fs.String("group", "", "print a single grouping (router, class, hops, layers) instead of the combined table")
	asJSON := fs.Bool("json", false, "emit the attribution table as JSON")
	perfetto := fs.String("perfetto", "", "write the spans as Chrome trace-event / Perfetto JSON to this file")
	engine := fs.String("engine", "", "series CSV with engine.* columns (mirasim -series with -enginestats) to render as counter tracks alongside the spans in the -perfetto export")
	heatmap := fs.String("heatmap", "", "write the per-router congestion heatmap as CSV to this file")
	svgOut := fs.String("svg", "", "write the congestion heatmap as SVG to this file")
	window := fs.Int64("window", 1000, "congestion heatmap column width in cycles")
	if err := parseWithLogging(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("spans needs exactly one trace file")
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	// Spans are kept only for the exports that draw them; the
	// attribution table alone needs the flits in flight and no more.
	export := *perfetto != "" || *heatmap != "" || *svgOut != ""
	sb, err := obs.BuildSpans(f, export)
	if err != nil {
		return fmt.Errorf("spans: %w (span folding needs an unfiltered trace)", err)
	}
	attr, spans := sb.Attribution(), sb.Spans()
	slog.Info("spans built", "flits", attr.Flits())

	var tbl = attr.CombinedTable()
	if *group != "" {
		tbl, err = attr.Table(*group)
		if err != nil {
			return err
		}
	}
	if *asJSON {
		fmt.Printf("%s\n", tbl.JSON())
	} else {
		fmt.Print(tbl.String())
	}

	if *engine != "" && *perfetto == "" {
		return fmt.Errorf("-engine needs -perfetto (engine tracks render into the trace-event export)")
	}
	if *perfetto != "" {
		doc := obs.PerfettoDoc(spans)
		if *engine != "" {
			ef, err := os.Open(*engine)
			if err != nil {
				return fmt.Errorf("engine: %w", err)
			}
			evs, err := obs.EngineTrackEvents(ef)
			ef.Close()
			if err != nil {
				return fmt.Errorf("engine %s: %w", *engine, err)
			}
			doc.TraceEvents = append(doc.TraceEvents, evs...)
			slog.Info("engine track appended", "file", *engine, "events", len(evs))
		}
		if err := writeFileWith(*perfetto, func(f *os.File) error {
			return obs.WriteTraceDoc(f, doc)
		}); err != nil {
			return fmt.Errorf("perfetto: %w", err)
		}
		slog.Info("perfetto trace written", "file", *perfetto, "spans", len(spans))
	}
	if *heatmap != "" || *svgOut != "" {
		hm := obs.CongestionHeatmap(spans, *window)
		tbl := hm.Table()
		if *heatmap != "" {
			if err := os.WriteFile(*heatmap, []byte(tbl.CSV()), 0o644); err != nil {
				return fmt.Errorf("heatmap: %w", err)
			}
			slog.Info("congestion heatmap written", "file", *heatmap, "window", *window)
		}
		if *svgOut != "" {
			chart := plot.Heatmap{
				Title:     "per-router congestion (stalled-flit cycles)",
				XLabel:    fmt.Sprintf("cycle window (%d cycles)", *window),
				YLabel:    "router",
				ColLabels: tbl.Header[1:],
			}
			for r, cells := range hm.Cells {
				row := make([]float64, len(cells))
				for w, v := range cells {
					row[w] = float64(v)
				}
				chart.Rows = append(chart.Rows, row)
				chart.RowLabels = append(chart.RowLabels, tbl.Rows[r][0])
			}
			svg, err := chart.SVG()
			if err != nil {
				return fmt.Errorf("svg: %w", err)
			}
			if err := os.WriteFile(*svgOut, []byte(svg), 0o644); err != nil {
				return fmt.Errorf("svg: %w", err)
			}
			slog.Info("congestion heatmap rendered", "file", *svgOut)
		}
	}
	return nil
}

// writeFileWith creates path, runs fn on the open file and closes it,
// reporting the first error (including the close, so short writes on a
// full disk are not silently dropped).
func writeFileWith(path string, fn func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = fn(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

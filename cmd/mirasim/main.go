// Command mirasim runs a single NoC simulation of one MIRA architecture
// and reports latency, throughput, power and activity. A run is a
// declarative scenario (internal/scenario): the built-in default (3DM,
// uniform random at 0.15 flits/node/cycle, windows 5000/20000/40000,
// seed 1) or each scenario of a -scenario file, run as a batch. Each
// -set key=value edits one field: the key is a dotted scenario JSON
// path, the value JSON or a bare string. Keys are independent, so a new
// traffic kind sets the whole traffic object and -set measure=N leaves
// drain alone. -dump prints the edited scenarios instead of running them.
//
// Usage:
//
//	mirasim -set arch=3DM-E -set traffic.rate=0.2
//	mirasim -set 'traffic={"kind":"trace","workload":"tpcw","trace_cycles":20000}'
//	mirasim -set arch=2DB -set 'traffic={"kind":"replay","trace_file":"tpcw.trace"}'
//	mirasim -set traffic.rate=0.2 -dump > run.json
//	mirasim -scenario runs.json -set shards=2 -workers 4
//	mirasim -set traffic.rate=0.2 -trace run.jsonl -series occ.csv
//	mirasim -scenario runs.json -serve 127.0.0.1:8080
//
// -trace records every flit pipeline event as JSONL (replayable with
// "miratrace flits"), -series writes the cycle-sampled gauge time series
// (buffer occupancy, credit stalls, layer activity) as CSV, and -attrib
// writes the per-flit span latency attribution (stage cycles by router,
// traffic class, hop count and datapath layer) as CSV; any of them
// attaches the observability collector (internal/obs), sampled every
// observe.window cycles, and prints a latency-percentile digest.
//
// -progress renders a live engine-telemetry line on stderr (cycles/sec,
// ETA, shard imbalance) and -enginestats prints the end-of-run engine
// table (per-shard wall time, pool utilization, runtime stats) on
// stderr. Either adds the engine.* columns (wall, step and per-shard
// busy, drain and barrier nanoseconds) to the -series CSV, which
// "miratrace spans -engine" renders offline. Both are strictly
// out-of-band: simulated results are bit-identical with or without
// them. A batch takes -progress; the other output flags are an error.
//
// -serve ADDR runs the batch (or the edited default) under a net/http
// server: Prometheus text exposition of every run's metric registry at
// /metrics, run progress and results at /runs, a liveness probe at
// /healthz, and net/http/pprof at /debug/pprof/. Serving is
// observation-only. The batch results print as JSON when it completes.
//
// Diagnostics go to stderr as log/slog structured logs (-loglevel,
// -logjson); result output stays on stdout untouched. Ctrl-C cancels
// the run; a canceled simulation reports the counters it measured
// before the interrupt and marks the result canceled.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mira/internal/cli"
	"mira/internal/core"
	"mira/internal/exp"
	"mira/internal/noc"
	"mira/internal/obs"
	"mira/internal/power"
	"mira/internal/scenario"
	"mira/internal/serve"
)

// defaultScenario is the run -set edits when there is no -scenario.
var defaultScenario = scenario.Scenario{
	Arch:     "3DM",
	Traffic:  scenario.Traffic{Kind: "ur", Rate: 0.15},
	Warmup:   5000,
	Measure:  20000,
	Drain:    40000,
	Seed:     1,
	StepMode: "activity",
}

func main() {
	var edits scenario.Edits
	flag.Var(&edits, "set", "edit the scenario: key=value, key a dotted scenario JSON path (traffic.rate), value JSON or a bare string; repeatable")
	colSteps := flag.Bool("steptable", false, "also print the per-step latency table after a collective run")
	trace := flag.String("trace", "", "write a JSONL flit-event trace to this file (see miratrace flits)")
	series := flag.String("series", "", "write the sampled observability time series to this CSV file")
	attrib := flag.String("attrib", "", "write the span latency-attribution table to this CSV file")
	progress := flag.Bool("progress", false, "live engine progress on stderr (cycles/sec, ETA, shard imbalance); enables engine telemetry")
	engineStats := flag.Bool("enginestats", false, "print the end-of-run engine telemetry table (per-shard wall time, pool utilization) on stderr; enables engine telemetry")
	dump := flag.Bool("dump", false, "print the edited scenario JSON and exit without running")
	scenarioFile := flag.String("scenario", "", "run the JSON scenario (or array of scenarios) in this file ('-' for stdin) instead of the default, and print JSON results")
	workers := flag.Int("workers", 0, "batch worker goroutines for -scenario (0 = all CPUs)")
	timeout := flag.Duration("timeout", 0, "per-run wall-clock limit for -scenario (0 = none)")
	serveAddr := flag.String("serve", "", "serve /metrics, /runs, /healthz and /debug/pprof on this address while the batch runs")
	var logf cli.LogFlags
	cli.RegisterFlags(flag.CommandLine, &logf)
	flag.Parse()
	if err := cli.Setup(logf); err != nil {
		cli.Usage("mirasim", err)
	}
	if flag.NArg() > 0 {
		cli.Usage("mirasim", fmt.Errorf("unexpected argument %q (edit the scenario with -set key=value)", flag.Arg(0)))
	}
	batch := *scenarioFile != "" || *serveAddr != ""
	if batch {
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "trace", "series", "attrib", "steptable", "enginestats":
				cli.Usage("mirasim", fmt.Errorf("-%s applies to a single run, not to a -scenario or -serve batch", f.Name))
			}
		})
	}

	scs := []scenario.Scenario{defaultScenario}
	if *scenarioFile != "" {
		var err error
		if scs, err = loadScenarios(*scenarioFile); err != nil {
			cli.Fatal("mirasim", err)
		}
	}
	collect := *trace != "" || *series != "" || *attrib != ""
	engine := *progress || *engineStats
	for i := range scs {
		sc := &scs[i]
		var err error
		if *sc, err = edits.Apply(*sc); err != nil {
			cli.Usage("mirasim", err)
		}
		if collect || engine {
			if sc.Observe == nil {
				sc.Observe = &scenario.Observe{}
			}
			sc.Observe.Spans = sc.Observe.Spans || *attrib != ""
			sc.Observe.Engine = sc.Observe.Engine || engine
		}
		if *dump || *scenarioFile == "" {
			if err := sc.Validate(); err != nil {
				cli.Usage("mirasim", err)
			}
		}
	}

	if *dump {
		var v any = scs
		if len(scs) == 1 {
			v = scs[0]
		}
		if err := printJSON(v); err != nil {
			cli.Fatal("mirasim", err)
		}
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *progress {
		if batch {
			// Batch runs execute concurrently; interleave labeled lines
			// through the structured log instead of rewriting one line.
			obs.SetEngineProgressHook(func(p obs.EngineProgress) {
				slog.Info("progress", "cmd", "mirasim", "run", p.Label, "state", p.String())
			})
		} else {
			obs.SetEngineProgressHook(func(p obs.EngineProgress) {
				fmt.Fprintf(os.Stderr, "\r\x1b[K%s", p.String())
			})
		}
	}

	batchOpts := exp.BatchOptions{Workers: *workers, Timeout: *timeout}
	if *serveAddr != "" {
		if err := runServe(ctx, *serveAddr, scs, batchOpts); err != nil {
			cli.Fatal("mirasim", err)
		}
		return
	}
	if *scenarioFile != "" {
		if err := printJSON(exp.RunBatch(ctx, scs, batchOpts)); err != nil {
			cli.Fatal("mirasim", err)
		}
		return
	}

	sc := scs[0]
	e, err := sc.Elaborate()
	if err != nil {
		cli.Fatal("mirasim", err)
	}
	d := e.Design
	fmt.Printf("architecture : %s (%d ports, %d layers, %d-cycle ST+LT)\n",
		d.Arch, d.AreaParams.Ports, d.AreaParams.Layers, d.STLTCycles)
	fmt.Printf("topology     : %s, link %.2f mm\n", d.Topo.Name, d.LinkLenMM)
	fmt.Printf("router area  : %.0f um^2 total, %.0f um^2 max/layer\n",
		d.Area.TotalRouter, d.Area.MaxLayer)
	if sc.Traffic.Kind == "trace" {
		fmt.Printf("workload     : %s (%.1f%% short flits, %.0f%% control packets)\n",
			sc.Traffic.Workload, e.Stats.ShortFlitPct(), 100*e.Stats.ControlPacketFrac())
	}

	var traceOut *os.File
	if *trace != "" {
		traceOut, err = os.Create(*trace)
		if err != nil {
			cli.Fatal("mirasim", err)
		}
		e.Obs.SetTraceWriter(traceOut)
	}

	out, closeErr := e.Run(ctx)
	r := out.Result
	report(d, r, exp.NetworkPowerW(d, r, true))
	if e.Collective != nil {
		fmt.Print(e.Collective.Summary().String())
		if *colSteps {
			fmt.Print(e.Collective.StepTable().String())
		}
	}

	if e.Obs != nil {
		if err := finishObs(e.Obs, closeErr, traceOut, *trace, *series, *attrib); err != nil {
			cli.Fatal("mirasim", err)
		}
		if *progress {
			fmt.Fprintln(os.Stderr) // terminate the \r progress line
		}
		if ec := e.Obs.Engine(); ec != nil && *engineStats {
			fmt.Fprint(os.Stderr, ec.Table().String())
			n, waited, fold, encode := e.Obs.HandOffs()
			fmt.Fprintf(os.Stderr, "obs: %d event batches handed to the sinks, simulation waited %.3fs for them; span fold busy %.3fs, encoder busy %.3fs",
				n, waited.Seconds(), fold.Seconds(), encode.Seconds())
			if sb := e.Obs.Spans(); sb != nil {
				fmt.Fprintf(os.Stderr, "; %d spans kept in %.2f MB", sb.Attribution().Flits(), float64(sb.RetainedBytes())/1e6)
			}
			fmt.Fprintln(os.Stderr)
		}
	}
}

// finishObs closes the trace file, writes the series and attribution
// CSVs and prints the observability digest for an observed run, whose
// collector Elaboration.Run has closed. Trace-writer failures (a disk
// that filled mid-run, a pipe that closed) surface here: closeErr is
// the collector's Close error, the buffered writer's first error
// together with the count of events that made it out, and closing the
// file itself is checked rather than deferred away.
func finishObs(c *obs.Collector, closeErr error, traceOut *os.File, tracePath, seriesPath, attribPath string) error {
	if traceOut != nil {
		if err := traceOut.Close(); err != nil && closeErr == nil {
			closeErr = fmt.Errorf("trace %s: %w", tracePath, err)
		}
	}
	if closeErr != nil {
		return fmt.Errorf("trace: %w", closeErr)
	}
	sum := c.Summary()
	l := sum.Latency
	fmt.Printf("observability: %d flits, flit lat p50/p95/p99 = %d/%d/%d, pkt p99 = %d (%d windows of %d cycles)\n",
		l.Flits, l.FlitP50, l.FlitP95, l.FlitP99, l.PacketP99, sum.Windows, sum.Window)
	if tracePath != "" {
		fmt.Printf("trace        : %d events -> %s\n", sum.Traced, tracePath)
	}
	if seriesPath != "" {
		if err := os.WriteFile(seriesPath, []byte(c.Sampler().Table().CSV()), 0o644); err != nil {
			return fmt.Errorf("series: %w", err)
		}
		fmt.Printf("series       : %d windows x %d metrics -> %s\n",
			sum.Windows, c.Registry().Len(), seriesPath)
	}
	if attribPath != "" {
		sb := c.Spans()
		if sb == nil {
			return fmt.Errorf("attrib: collector has no span builder (observe.spans not enabled)")
		}
		if err := sb.Err(); err != nil {
			return fmt.Errorf("attrib: %w", err)
		}
		tbl := sb.Attribution().CombinedTable()
		if err := os.WriteFile(attribPath, []byte(tbl.CSV()), 0o644); err != nil {
			return fmt.Errorf("attrib: %w", err)
		}
		fmt.Printf("attribution  : %d flit spans -> %s\n", sb.Attribution().Flits(), attribPath)
	}
	return nil
}

// loadScenarios reads the -scenario file ('-' for stdin).
func loadScenarios(path string) ([]scenario.Scenario, error) {
	var in io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		in = f
	}
	return scenario.DecodeBatch(in)
}

// printJSON writes v to stdout as indented JSON.
func printJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// runServe executes the batch under the observability HTTP server. The
// listener is bound before the batch starts so a bad address fails fast;
// the server then runs until the batch finishes (or ctx is canceled,
// which also cancels in-flight runs), the results are printed as JSON,
// and the server is drained with a short grace period.
func runServe(ctx context.Context, addr string, scs []scenario.Scenario, o exp.BatchOptions) error {
	srv := serve.New(scs)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	slog.Info("serving", "cmd", "mirasim", "addr", ln.Addr().String(), "runs", len(scs))

	results := srv.Run(ctx, o)
	if err := printJSON(results); err != nil {
		return err
	}

	shutCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		slog.Warn("server shutdown", "cmd", "mirasim", "err", err)
	}
	if err := <-serveErr; err != nil && err != http.ErrServerClosed {
		return fmt.Errorf("serve: %w", err)
	}
	// A signal-canceled batch is a clean exit: the partial results were
	// reported above. Only unprompted per-run failures are fatal.
	if ctx.Err() != nil {
		slog.Info("batch canceled", "cmd", "mirasim", "runs", len(results))
		return nil
	}
	for _, br := range results {
		if br.Err != "" {
			return fmt.Errorf("run %d (%s): %s", br.Index, br.Scenario.Arch, br.Err)
		}
	}
	return nil
}

func report(d *core.Design, r noc.Result, powerW float64) {
	fmt.Printf("result       : %s\n", r.String())
	if r.Canceled {
		fmt.Printf("  (canceled after %d measured cycles; counters are partial)\n", r.Cycles)
	}
	for c := noc.Class(0); c < noc.NumClasses; c++ {
		if pc := r.PerClass[c]; pc.Ejected > 0 {
			fmt.Printf("  %-10s : lat=%.2f hops=%.2f (%d pkts)\n", c, pc.AvgLatency, pc.AvgHops, pc.Ejected)
		}
	}
	fmt.Printf("network power: %.3f W (at %.0f GHz)\n", powerW, power.ClockGHz)
}

// Command mirasim runs a single NoC simulation of one MIRA architecture
// under a chosen workload and reports latency, throughput, power and
// activity. Every run is described by a declarative scenario
// (internal/scenario); -dump prints the scenario JSON for the current
// flags instead of running it, and -scenario executes a JSON file of one
// or more stored scenarios as a batch.
//
// Usage:
//
//	mirasim -arch 3DM-E -traffic ur -rate 0.2
//	mirasim -arch 2DB -traffic nuca -rate 0.1 -short 0.5
//	mirasim -arch 3DM -traffic trace -workload tpcw
//	mirasim -arch 2DB -traffic collective -algorithm ring-allreduce -iters 4 -measure 100000
//	mirasim -arch 3DM -traffic ur -rate 0.2 -dump > run.json
//	mirasim -scenario runs.json -workers 4
//	mirasim -arch 3DM -traffic ur -rate 0.2 -trace run.jsonl -series occ.csv
//	mirasim -arch 3DM -traffic ur -rate 0.2 -attrib stages.csv
//	mirasim -scenario runs.json -serve 127.0.0.1:8080
//
// -trace records every flit pipeline event as JSONL (replayable with
// "miratrace flits"), -series writes the cycle-sampled gauge time series
// (buffer occupancy, credit stalls, layer activity) as CSV, -attrib
// writes the per-flit span latency attribution (stage cycles by router,
// traffic class, hop count and datapath layer) as CSV, and -obswindow
// sets the sample window; any of them attaches the observability
// collector (internal/obs) and prints a latency-percentile digest after
// the run. A scenario file may request the same via its "observe" block.
//
// -progress renders a live engine-telemetry line on stderr (cycles/sec,
// ETA, shard imbalance), -enginestats prints the end-of-run engine
// table (per-shard wall time, pool utilization, runtime stats) on
// stderr, and -enginejson FILE stores the sampled engine series for
// offline rendering ("miratrace spans -engine"). All three are host
// wall-clock introspection of the simulator itself and are strictly
// out-of-band: simulated results are bit-identical with or without
// them.
//
// -serve ADDR runs the batch (or the single flag-described scenario)
// under a net/http server while it executes: hand-rolled Prometheus text
// exposition of every run's metric registry at /metrics, run progress
// and results at /runs, a liveness probe at /healthz, and net/http/pprof
// at /debug/pprof/. Serving is observation-only — the simulated results
// are bit-identical to an unserved run. The process prints the batch
// results as JSON when the batch completes, then shuts the server down
// and exits.
//
// Diagnostics go to stderr as log/slog structured logs (-loglevel,
// -logjson); result output stays on stdout untouched.
//
// Ctrl-C cancels the run; a canceled simulation reports the counters it
// measured before the interrupt and marks the result canceled.
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
	"strings"
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

func main() {
	archName := flag.String("arch", "3DM", "architecture: 2DB, 3DB, 3DM, 3DM(NC), 3DM-E, 3DM-E(NC)")
	trafficKind := flag.String("traffic", "ur", "traffic kind: "+strings.Join(scenario.TrafficKinds(), ", "))
	rate := flag.Float64("rate", 0.15, "injection rate in flits/node/cycle (synthetic)")
	short := flag.Float64("short", 0, "fraction of short flits (ur, nuca)")
	workload := flag.String("workload", "tpcw", "workload name (trace)")
	traceFile := flag.String("tracefile", "", "recorded trace to replay (replay)")
	hotFrac := flag.Float64("hotfrac", 0.3, "probability a packet targets a hot node (hotspot)")
	colAlg := flag.String("algorithm", "ring-allreduce", "collective schedule: ring-allreduce, reduce-scatter or tree-broadcast (collective)")
	colRanks := flag.Int("ranks", 0, "collective participant count, 0 = every node (collective)")
	colIters := flag.Int("iters", 1, "back-to-back collective iterations (collective)")
	colFlits := flag.Int("msgflits", 0, "collective message size in flits, 0 = the 4-flit data packet (collective)")
	colSteps := flag.Bool("steptable", false, "also print the per-step latency table after a collective run")
	warmup := flag.Int64("warmup", 5000, "warm-up cycles")
	measure := flag.Int64("measure", 20000, "measurement cycles")
	seed := flag.Int64("seed", 1, "simulation seed")
	stepMode := flag.String("stepmode", "activity", "activity, or checked to cross-check every invariant after every cycle")
	shards := flag.Int("shards", 0, "concurrent router shards inside the simulation (0 or 1 = sequential, -1 = auto from mesh size and CPUs); results are identical for any value")
	chips := flag.String("chips", "", "replace the fabric with a chiplet grid, CXxCY/NXxNY (e.g. 2x2/4x4); append +express for inter-chip express channels")
	d2d := flag.String("d2d", "", "die-to-die link timing for -chips as lat[:ser] cycles (e.g. 4 or 8:4; default 1:1 = indistinguishable from on-chip wires)")
	shutdown := flag.Bool("shutdown", true, "apply layer-shutdown power accounting")
	qos := flag.Bool("qos", false, "control-over-data switch priority")
	spec := flag.Bool("spec", false, "speculative switch allocation (Figure 8 (b))")
	lookahead := flag.Bool("lookahead", false, "look-ahead routing (Figure 8 (c))")
	matrixArb := flag.Bool("matrix-arb", false, "matrix (least-recently-served) allocator arbiters")
	trace := flag.String("trace", "", "write a JSONL flit-event trace to this file (see miratrace flits)")
	series := flag.String("series", "", "write the sampled observability time series to this CSV file")
	attrib := flag.String("attrib", "", "write the span latency-attribution table to this CSV file")
	obsWindow := flag.Int64("obswindow", 0, "observability sample window in cycles (0 = default 1000; enables observation with -trace/-series/-attrib)")
	progress := flag.Bool("progress", false, "live engine progress on stderr (cycles/sec, ETA, shard imbalance); enables engine telemetry")
	engineStats := flag.Bool("enginestats", false, "print the end-of-run engine telemetry table (per-shard wall time, pool utilization) on stderr; enables engine telemetry")
	engineJSON := flag.String("enginejson", "", "write the engine telemetry series as JSON to this file (see miratrace spans -engine); enables engine telemetry")
	dump := flag.Bool("dump", false, "print the scenario JSON for these flags and exit without running")
	scenarioFile := flag.String("scenario", "", "run a JSON scenario (or array of scenarios) from this file ('-' for stdin) and print JSON results")
	workers := flag.Int("workers", 0, "batch worker goroutines for -scenario (0 = all CPUs)")
	timeout := flag.Duration("timeout", 0, "per-run wall-clock limit for -scenario (0 = none)")
	serveAddr := flag.String("serve", "", "serve /metrics, /runs, /healthz and /debug/pprof on this address while the batch runs")
	var logf cli.LogFlags
	cli.RegisterFlags(flag.CommandLine, &logf)
	flag.Parse()
	if err := cli.Setup(logf); err != nil {
		fmt.Fprintf(os.Stderr, "mirasim: %v\n", err)
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	batchOpts := scenario.BatchOptions{Workers: *workers, Timeout: *timeout}

	chipsBlock, err := parseChips(*chips, *d2d)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mirasim: %v\n", err)
		os.Exit(2)
	}

	collectiveBlock := &scenario.Collective{
		Algorithm:    *colAlg,
		Participants: *colRanks,
		Iterations:   *colIters,
		MessageFlits: *colFlits,
	}

	flagScenario := func() scenario.Scenario {
		if *trafficKind == "collective" {
			// Collectives are closed-loop and start at cycle 0; the
			// scenario layer rejects a warm-up window for them.
			*warmup = 0
		}
		sc := scenario.Scenario{
			Arch:        *archName,
			Warmup:      *warmup,
			Measure:     *measure,
			Drain:       2 * *measure,
			Seed:        *seed,
			StepMode:    *stepMode,
			Shards:      *shards,
			QoSPriority: *qos,
			SpecSA:      *spec,
			LookaheadRC: *lookahead,
			MatrixArb:   *matrixArb,
			Traffic:     trafficFromFlags(*trafficKind, *rate, *short, *workload, *traceFile, *hotFrac, *measure, collectiveBlock),
		}
		sc.Chips = chipsBlock
		if *trace != "" || *series != "" || *attrib != "" || *obsWindow > 0 {
			sc.Observe = &scenario.Observe{Window: *obsWindow, Spans: *attrib != ""}
		}
		if *progress || *engineStats || *engineJSON != "" {
			if sc.Observe == nil {
				sc.Observe = &scenario.Observe{}
			}
			sc.Observe.Engine = true
		}
		return sc
	}

	if *progress {
		if *scenarioFile != "" || *serveAddr != "" {
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

	if *serveAddr != "" {
		scs, err := loadScenarios(*scenarioFile, flagScenario)
		if err == nil {
			err = runServe(ctx, *serveAddr, scs, batchOpts)
		}
		if err != nil {
			cli.Fatal("mirasim", err)
		}
		return
	}

	if *scenarioFile != "" {
		if err := runBatchFile(ctx, *scenarioFile, batchOpts); err != nil {
			cli.Fatal("mirasim", err)
		}
		return
	}

	sc := flagScenario()
	if err := sc.Validate(); err != nil {
		slog.Error("invalid scenario", "cmd", "mirasim", "err", err)
		os.Exit(2)
	}

	if *dump {
		data, err := sc.MarshalIndent()
		if err != nil {
			cli.Fatal("mirasim", err)
		}
		fmt.Printf("%s\n", data)
		return
	}

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

	r := e.Sim.Run(ctx)
	report(d, r, exp.NetworkPowerW(d, r, *shutdown))
	if e.Collective != nil {
		fmt.Print(e.Collective.Summary().String())
		if *colSteps {
			fmt.Print(e.Collective.StepTable().String())
		}
	}

	if e.Obs != nil {
		if err := finishObs(e.Obs, traceOut, *trace, *series, *attrib); err != nil {
			cli.Fatal("mirasim", err)
		}
		if *progress {
			fmt.Fprintln(os.Stderr) // terminate the \r progress line
		}
		if ec := e.Obs.Engine(); ec != nil {
			if *engineStats {
				fmt.Fprint(os.Stderr, ec.Table().String())
				n, waited, fold, encode := e.Obs.HandOffs()
				fmt.Fprintf(os.Stderr, "obs: %d event batches handed to the sinks, simulation waited %.3fs for them; span fold busy %.3fs, encoder busy %.3fs",
					n, waited.Seconds(), fold.Seconds(), encode.Seconds())
				if sb := e.Obs.Spans(); sb != nil {
					fmt.Fprintf(os.Stderr, "; %d spans kept in %.2f MB", sb.Attribution().Flits(), float64(sb.RetainedBytes())/1e6)
				}
				fmt.Fprintln(os.Stderr)
			}
			if *engineJSON != "" {
				if err := writeEngineJSON(ec, *engineJSON); err != nil {
					cli.Fatal("mirasim", err)
				}
				fmt.Printf("engine       : telemetry series -> %s\n", *engineJSON)
			}
		}
	}
}

// writeEngineJSON stores the engine telemetry series (windows, final
// meter snapshot, runtime stats) for offline rendering: miratrace spans
// -engine pairs it with the flit spans of the same run.
func writeEngineJSON(ec *obs.EngineCollector, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("enginejson: %w", err)
	}
	if err := ec.WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("enginejson: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("enginejson %s: %w", path, err)
	}
	return nil
}

// finishObs flushes and closes the trace, writes the series and
// attribution CSVs and prints the observability digest for an observed
// run. Trace-writer failures (a disk that filled mid-run, a pipe that
// closed) surface here: the collector's Close reports the buffered
// writer's first error together with the count of events that made it
// out, and closing the file itself is checked rather than deferred away.
func finishObs(c *obs.Collector, traceOut *os.File, tracePath, seriesPath, attribPath string) error {
	closeErr := c.Close()
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
		if err := os.WriteFile(seriesPath, []byte(c.SeriesTable().CSV()), 0o644); err != nil {
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

// parseChips converts the -chips grid spec ("CXxCY/NXxNY", optionally
// "+express") and the -d2d timing ("lat" or "lat:ser") into a scenario
// chips block. An empty -chips returns nil; -d2d without -chips is an
// error.
func parseChips(chips, d2d string) (*scenario.Chips, error) {
	if chips == "" {
		if d2d != "" {
			return nil, fmt.Errorf("-d2d needs -chips")
		}
		return nil, nil
	}
	c := &scenario.Chips{}
	if rest, ok := strings.CutSuffix(chips, "+express"); ok {
		chips = rest
		c.Express = true
	}
	if n, err := fmt.Sscanf(chips, "%dx%d/%dx%d", &c.ChipsX, &c.ChipsY, &c.NodesX, &c.NodesY); n != 4 || err != nil {
		return nil, fmt.Errorf("-chips %q: want CXxCY/NXxNY, e.g. 2x2/4x4", chips)
	}
	if d2d != "" {
		lat, ser := d2d, ""
		if l, s, ok := strings.Cut(d2d, ":"); ok {
			lat, ser = l, s
		}
		if _, err := fmt.Sscanf(lat, "%d", &c.D2DLatency); err != nil {
			return nil, fmt.Errorf("-d2d %q: want lat[:ser] cycles, e.g. 4 or 8:4", d2d)
		}
		if ser != "" {
			if _, err := fmt.Sscanf(ser, "%d", &c.D2DSerCycles); err != nil {
				return nil, fmt.Errorf("-d2d %q: want lat[:ser] cycles, e.g. 4 or 8:4", d2d)
			}
		}
	}
	return c, nil
}

// trafficFromFlags assembles the traffic description for one kind,
// carrying over only the flags that kind consumes so the dumped scenario
// JSON stays minimal.
func trafficFromFlags(kind string, rate, short float64, workload, traceFile string, hotFrac float64, measure int64, col *scenario.Collective) scenario.Traffic {
	t := scenario.Traffic{Kind: kind}
	switch kind {
	case "ur", "nuca":
		t.Rate = rate
		t.ShortFrac = short
	case "transpose", "complement", "tornado":
		t.Rate = rate
	case "hotspot":
		t.Rate = rate
		t.HotFrac = hotFrac
	case "trace":
		t.Workload = workload
		t.TraceCycles = measure
	case "replay":
		t.TraceFile = traceFile
	case "collective":
		t.Collective = col
	}
	return t
}

// loadScenarios resolves the batch to serve: the scenario file when one
// was given, otherwise the single scenario described by the flags.
func loadScenarios(path string, flagScenario func() scenario.Scenario) ([]scenario.Scenario, error) {
	if path == "" {
		sc := flagScenario()
		if err := sc.Validate(); err != nil {
			return nil, err
		}
		return []scenario.Scenario{sc}, nil
	}
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

// runBatchFile executes a stored scenario file through the batch runner
// and streams the JSON results to stdout.
func runBatchFile(ctx context.Context, path string, o scenario.BatchOptions) error {
	var in io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	return scenario.RunBatchJSON(ctx, in, os.Stdout, o)
}

// runServe executes the batch under the observability HTTP server. The
// listener is bound before the batch starts so a bad address fails fast;
// the server then runs until the batch finishes (or ctx is canceled,
// which also cancels in-flight runs), the results are printed as JSON,
// and the server is drained with a short grace period.
func runServe(ctx context.Context, addr string, scs []scenario.Scenario, o scenario.BatchOptions) error {
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

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(results); err != nil {
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

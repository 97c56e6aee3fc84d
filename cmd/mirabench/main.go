// Command mirabench regenerates the tables and figures of the MIRA
// paper's evaluation. Each subcommand corresponds to one table or
// figure; "all" runs the complete set.
//
// Usage:
//
//	mirabench [-quick] [-csv] [-svg DIR] [-seed N] [-workers N] [-shards N] [-stepmode MODE] [-progress] [-timing FILE] [-cpuprofile FILE] [-memprofile FILE] [-obs] [-obswindow N] <experiment>...
//	mirabench all
//	mirabench list
//	mirabench -obs
//
// Sweep points fan out across -workers goroutines (default: all CPUs);
// tables are bit-identical for any worker count. -shards N additionally
// partitions each simulated mesh into N contiguous router-ID ranges
// stepped concurrently inside every cycle; tables are bit-identical for
// any shard count, and the two knobs compose (workers parallelize
// across sweep points, shards inside each simulation). -progress logs a
// per-point timing line to stderr; -timing records per-experiment
// wall-clock times as JSON.
//
// One invocation simulates each distinct sweep point once: Figures 11
// and 12 are latency and power readings of the same simulations, so
// "mirabench fig11a fig12a fig12d" runs the uniform-random grid for
// fig11a and renders the other two from its stored results, byte for
// byte what separate invocations print. -progress marks such points
// "reused" and -timing counts them per experiment (points_run /
// points_reused), so a 0.00 s fig12a is explained, not skipped.
// -obswindow and -enginestats runs are never reused: their side
// outputs are the point.
//
// -stepmode=checked revalidates every simulator invariant after every
// cycle (default: activity); the tables are identical, so a stdout diff
// between the two is a regression check. -cpuprofile and -memprofile
// write pprof profiles for performance work.
//
// -obs measures the observability layer's probe overhead (bare vs
// collector vs collector+trace) and prints the comparison; alone it runs
// just that report. -obswindow N attaches a collector with an N-cycle
// sample window to every sweep point of the selected experiments.
// -enginestats attaches engine self-telemetry to every sweep point and
// logs per-point engine progress (cycles/sec, shard imbalance) to
// stderr; like -obswindow it is out-of-band and leaves every table
// byte-identical.
//
// Experiments: table1 table2 table3, fig1 fig2 fig3 fig8 fig9 fig10,
// fig11a-d, fig12a-d, fig13a-c, plus the ablation-* and ext-* studies
// beyond the paper (run "mirabench list" for the inventory).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"mira/internal/cli"
	"mira/internal/core"
	"mira/internal/exp"
	"mira/internal/noc"
	"mira/internal/obs"
)

type experiment struct {
	id   string
	desc string
	run  func(context.Context, exp.Options) (exp.Table, error)
}

func wrap(f func() exp.Table) func(context.Context, exp.Options) (exp.Table, error) {
	return func(context.Context, exp.Options) (exp.Table, error) { return f(), nil }
}

func wrapOpts(f func(context.Context, exp.Options) exp.Table) func(context.Context, exp.Options) (exp.Table, error) {
	return func(ctx context.Context, o exp.Options) (exp.Table, error) { return f(ctx, o), nil }
}

var experiments = []experiment{
	{"table1", "router component areas (TSMC 90nm model)", wrap(exp.Table1)},
	{"table2", "physical design parameters", wrap(exp.Table2)},
	{"table3", "ST+LT pipeline combination delays", wrap(exp.Table3)},
	{"fig1", "data pattern breakdown per workload", exp.Fig1},
	{"fig2", "packet type distribution per workload", exp.Fig2},
	{"fig3", "chip footprint comparison", wrap(exp.Fig3)},
	{"fig8", "router pipeline family comparison", wrapOpts(exp.Fig8)},
	{"fig9", "per-flit energy breakdown", wrap(exp.Fig9)},
	{"fig10", "NUCA node layouts", wrap(exp.Fig10)},
	{"fig11a", "latency vs injection rate, uniform random", wrapOpts(exp.Fig11a)},
	{"fig11b", "latency vs injection rate, NUCA-UR", wrapOpts(exp.Fig11b)},
	{"fig11c", "MP-trace latency normalized to 2DB", exp.Fig11c},
	{"fig11d", "average hop counts", exp.Fig11d},
	{"fig12a", "power vs injection rate, uniform random", wrapOpts(exp.Fig12a)},
	{"fig12b", "power vs injection rate, NUCA-UR", wrapOpts(exp.Fig12b)},
	{"fig12c", "MP-trace power normalized to 2DB", exp.Fig12c},
	{"fig12d", "normalized power-delay product", wrapOpts(exp.Fig12d)},
	{"fig13a", "short flit percentage per workload", exp.Fig13a},
	{"fig13b", "layer-shutdown power savings", wrapOpts(exp.Fig13b)},
	{"fig13c", "temperature reduction from shutdown", wrapOpts(exp.Fig13c)},
	{"ablation-buf", "3DM buffer-depth ablation (extension)", wrapOpts(exp.AblationBufferDepth)},
	{"ablation-vc", "3DM VC-count ablation (extension)", wrapOpts(exp.AblationVCs)},
	{"ablation-express", "express-interval ablation (extension)", exp.AblationExpressInterval},
	{"ext-leakage", "leakage-thermal feedback (extension)", wrapOpts(exp.ExtLeakage)},
	{"ext-cosim", "closed-loop CMP/NoC co-simulation (extension)", exp.ExtCosim},
	{"ext-patterns", "adversarial traffic patterns (extension)", exp.ExtPatterns},
	{"ext-qos", "QoS priority arbitration (extension)", wrapOpts(exp.ExtQoS)},
	{"ext-fault", "link-fault tolerance via west-first routing (extension)", exp.ExtFault},
	{"ext-herding", "thermal herding + router shutdown (extension)", wrapOpts(exp.ExtHerding)},
	{"ext-protocol", "MESI vs MOESI coherence traffic (extension)", exp.ExtProtocol},
	{"ext-chiplet", "chiplet grid d2d link sweep (extension)", wrapOpts(exp.ChipletSweep)},
	{"ext-collective", "collective workloads: ring allreduce / reduce-scatter / tree broadcast (extension)", wrapOpts(exp.CollectiveSweep)},
	{"obs-ur", "observability summaries across UR injection rates (extension)",
		wrapOpts(func(ctx context.Context, o exp.Options) exp.Table {
			return exp.ObsURSweep(ctx, core.Arch3DM, []float64{0.05, 0.10, 0.15, 0.20, 0.25}, o)
		})},
	{"obs-stages", "per-flit latency stage decomposition per architecture (extension)",
		wrapOpts(func(ctx context.Context, o exp.Options) exp.Table {
			return exp.SpanStages(ctx,
				[]core.Arch{core.Arch2DB, core.Arch3DB, core.Arch3DM, core.Arch3DME}, 0.15, o)
		})},
}

func main() {
	quick := flag.Bool("quick", false, "use short simulation windows")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned text")
	svgDir := flag.String("svg", "", "also write an SVG figure per experiment into this directory")
	seed := flag.Int64("seed", 42, "simulation seed")
	workers := flag.Int("workers", 0, "sweep-point worker goroutines (0 = all CPUs); results are identical for any value")
	shards := flag.Int("shards", 0, "concurrent router shards inside each simulation (0 or 1 = sequential, -1 = auto from mesh size and CPUs); results are identical for any value")
	progress := flag.Bool("progress", false, "log a per-point progress/timing line to stderr (reused=true: served from an earlier experiment's results)")
	timingFile := flag.String("timing", "", "write per-experiment wall-clock times and points run/reused to this JSON file")
	stepMode := flag.String("stepmode", "activity", "activity, or checked to cross-check every invariant after every cycle; tables are identical")
	obsReport := flag.Bool("obs", false, "measure and report observability probe overhead (runs standalone or before the selected experiments)")
	obsWindow := flag.Int64("obswindow", 0, "attach a collector with this sample window (cycles) to every sweep point; 0 = unobserved")
	engineStats := flag.Bool("enginestats", false, "attach engine telemetry to every sweep point and log per-point engine progress (cycles/sec, shard imbalance) to stderr; tables are identical either way")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
	var logf cli.LogFlags
	cli.RegisterFlags(flag.CommandLine, &logf)
	flag.Usage = usage
	flag.Parse()
	if err := cli.Setup(logf); err != nil {
		fmt.Fprintf(os.Stderr, "mirabench: %v\n", err)
		os.Exit(2)
	}

	// Ctrl-C / SIGTERM cancel the context; in-flight simulations stop
	// within one cancellation stride and the process exits without
	// printing the interrupted experiment's (partial) table.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	args := flag.Args()
	if len(args) == 0 && !*obsReport {
		usage()
		os.Exit(2)
	}

	opts := exp.Default()
	if *quick {
		opts = exp.Quick()
	}
	opts.Seed = *seed
	opts.Workers = *workers
	opts.Shards = *shards
	opts.ObserveWindow = *obsWindow
	opts.Engine = *engineStats
	opts.Reuse = exp.NewScope() // this invocation simulates each distinct point once
	if *engineStats {
		// Sweep points run concurrently; labeled slog lines interleave
		// cleanly where a single rewritten line could not.
		obs.SetEngineProgressHook(func(p obs.EngineProgress) {
			slog.Info("engine", "cmd", "mirabench", "point", p.Label, "state", p.String())
		})
	}
	mode, err := noc.ParseStepMode(*stepMode)
	if err != nil {
		slog.Error("bad -stepmode", "cmd", "mirabench", "err", err)
		os.Exit(2)
	}
	opts.StepMode = mode

	if *obsReport {
		tb := exp.ObsOverhead(ctx, opts)
		if *csv {
			fmt.Printf("# %s\n%s\n", tb.ID, tb.CSV())
		} else {
			fmt.Println(tb.String())
		}
		if len(args) == 0 {
			return
		}
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			cli.Fatal("mirabench", fmt.Errorf("cpuprofile: %w", err))
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			cli.Fatal("mirabench", fmt.Errorf("cpuprofile: %w", err))
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				slog.Error("memprofile", "cmd", "mirabench", "err", err)
				return
			}
			defer f.Close()
			runtime.GC() // report live heap, not transient garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				slog.Error("memprofile", "cmd", "mirabench", "err", err)
			}
		}()
	}
	// Always tally what the sweep points did (RunAll serializes the
	// callback); -progress additionally logs each point.
	var cur expTiming // the running experiment's entry
	opts.Progress = func(p exp.Progress) {
		cur.PointsRun += p.Ran
		cur.PointsReused += p.Reused
		if *progress {
			slog.Info("point", "done", p.Done, "total", p.Total, "label", p.Label,
				"elapsed", p.Elapsed.Round(time.Millisecond), "reused", p.Ran == 0 && p.Reused > 0)
		}
	}

	if args[0] == "list" {
		for _, e := range experiments {
			fmt.Printf("  %-8s %s\n", e.id, e.desc)
		}
		return
	}

	var selected []experiment
	if args[0] == "all" {
		selected = experiments
	} else {
		byID := map[string]experiment{}
		for _, e := range experiments {
			byID[e.id] = e
		}
		for _, id := range args {
			e, ok := byID[id]
			if !ok {
				slog.Error("unknown experiment (try 'list')", "cmd", "mirabench", "experiment", id)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	var timings []expTiming
	for _, e := range selected {
		if *progress {
			slog.Info("experiment start", "id", e.id)
		}
		cur = expTiming{ID: e.id}
		start := time.Now()
		tb, err := e.run(ctx, opts)
		elapsed := time.Since(start)
		if ctx.Err() != nil {
			slog.Error("interrupted", "cmd", "mirabench", "experiment", e.id)
			os.Exit(130)
		}
		if err != nil {
			cli.Fatal("mirabench", fmt.Errorf("%s: %w", e.id, err))
		}
		cur.Seconds = elapsed.Seconds()
		timings = append(timings, cur)
		if *csv {
			fmt.Printf("# %s\n%s\n", tb.ID, tb.CSV())
		} else {
			fmt.Println(tb.String())
			// Timing goes to stderr so stdout stays byte-identical
			// across worker counts and machines.
			slog.Info("experiment done", "id", e.id, "elapsed", elapsed.Round(time.Millisecond),
				"points_run", cur.PointsRun, "points_reused", cur.PointsReused)
		}
		if *svgDir != "" {
			if err := writeSVG(*svgDir, tb); err != nil {
				slog.Warn("no figure written", "cmd", "mirabench", "id", tb.ID, "err", err)
			}
		}
	}
	if *timingFile != "" {
		if err := writeTimings(*timingFile, opts, *workers, timings); err != nil {
			cli.Fatal("mirabench", fmt.Errorf("timing file: %w", err))
		}
	}
}

// expTiming is one experiment's entry in the -timing file: wall clock,
// and how many of its sweep-point simulations actually ran versus were
// served from results an earlier experiment of this invocation stored.
type expTiming struct {
	ID           string  `json:"id"`
	Seconds      float64 `json:"seconds"`
	PointsRun    int     `json:"points_run"`
	PointsReused int     `json:"points_reused"`
}

// timingReport is the -timing JSON document; it captures enough context
// (worker count, windows, seed) to compare runs across machines.
type timingReport struct {
	GOMAXPROCS  int         `json:"gomaxprocs"`
	Workers     int         `json:"workers"` // as requested; 0 means GOMAXPROCS
	Quick       bool        `json:"quick"`
	Seed        int64       `json:"seed"`
	Experiments []expTiming `json:"experiments"`
	TotalSec    float64     `json:"total_seconds"`
}

func writeTimings(path string, o exp.Options, workers int, timings []expTiming) error {
	rep := timingReport{
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Workers:     workers,
		Quick:       o.Measure < exp.Default().Measure,
		Seed:        o.Seed,
		Experiments: timings,
	}
	for _, t := range timings {
		rep.TotalSec += t.Seconds
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// writeSVG renders a table as a figure in dir. Tables with no numeric
// series (e.g. the fig10 layouts) report an error and are skipped.
func writeSVG(dir string, tb exp.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	svg, err := tb.SVG("")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, tb.ID+".svg")
	if err := os.WriteFile(path, []byte(svg), 0o644); err != nil {
		return err
	}
	slog.Info("wrote figure", "path", path)
	return nil
}

func usage() {
	fmt.Fprintf(os.Stderr, `mirabench regenerates the MIRA paper's tables and figures.

usage: mirabench [-quick] [-seed N] [-workers N] [-shards N] [-stepmode MODE] [-progress] [-timing FILE] [-cpuprofile FILE] [-memprofile FILE] [-obs] [-obswindow N] [-enginestats] <experiment>... | all | list

Experiments named together share simulations: "mirabench fig11a fig12a fig12d"
simulates the uniform-random grid once and prints what three runs would.
`)
	flag.PrintDefaults()
}

// Command mirabench regenerates the tables and figures of the MIRA
// paper's evaluation. Each subcommand corresponds to one table or
// figure; "all" runs the complete set.
//
// Usage:
//
//	mirabench [-quick] [-csv] [-svg DIR] [-seed N] [-workers N] [-set key=value]... [-progress] [-timing FILE] [-cpuprofile FILE] <experiment>...
//	mirabench all
//	mirabench list
//
// Sweep points fan out across -workers goroutines (default: all CPUs);
// tables are bit-identical for any worker count. -progress logs a
// per-point timing line to stderr; -timing records per-experiment
// wall-clock times as JSON; -cpuprofile writes a pprof CPU profile.
//
// One invocation simulates each distinct sweep point once: Figures 11
// and 12 are latency and power readings of the same simulations, so
// "mirabench fig11a fig12a fig12d" runs the uniform-random grid for
// fig11a and renders the other two from its stored results, byte for
// byte what separate invocations print. -progress marks such points
// "reused" and -timing counts them per experiment (points_run /
// points_reused), so a 0.00 s fig12a is explained, not skipped.
//
// -set key=value edits the scenario every simulation starts from, as in
// mirasim; the driver's own fields (traffic, fig8's pipeline,
// ext-collective's windows) keep the driver's value. Four edits leave
// every table byte-identical: -set shards=N partitions each simulated
// mesh into N router shards stepped concurrently inside every cycle (-1
// picks from the mesh size), -set step_mode=checked revalidates every
// simulator invariant after every cycle, -set observe.window=N attaches
// a collector sampling every N cycles, and -set observe.engine=true
// attaches engine telemetry and logs per-point engine progress
// (cycles/sec, shard imbalance) to stderr. Observed points are never
// reused: their side outputs are the point. A bad edit exits 2 before
// anything simulates.
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
	"sync"
	"syscall"
	"time"

	"mira/internal/cli"
	"mira/internal/core"
	"mira/internal/exp"
	"mira/internal/obs"
	"mira/internal/scenario"
	"mira/internal/stats"
)

func main() {
	quick := flag.Bool("quick", false, "use short simulation windows")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned text")
	svgDir := flag.String("svg", "", "also write an SVG figure per experiment into this directory")
	seed := flag.Int64("seed", 42, "simulation seed")
	workers := flag.Int("workers", 0, "sweep-point worker goroutines (0 = all CPUs); results are identical for any value")
	progress := flag.Bool("progress", false, "log a per-point progress/timing line to stderr (reused=true: served from an earlier experiment's results)")
	timingFile := flag.String("timing", "", "write per-experiment wall-clock times and points run/reused to this JSON file")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	var edits scenario.Edits
	flag.Var(&edits, "set", "edit every simulation's scenario: `key=value`, key a dotted scenario JSON path (shards, step_mode, observe.window, observe.engine), value JSON or a bare string; repeatable")
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
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}

	opts := exp.Default()
	if *quick {
		opts = exp.Quick()
	}
	opts.Seed = *seed
	opts.Workers = *workers
	opts.Reuse = exp.NewScope() // this invocation simulates each distinct point once
	opts.Edits = edits
	// The edited base scenario must be valid before anything simulates;
	// every driver sets its own traffic.
	sc := opts.Scenario(core.Arch3DM)
	sc.Traffic = scenario.Traffic{Kind: "ur", Rate: 0.1}
	if err := sc.Validate(); err != nil {
		cli.Usage("mirabench", fmt.Errorf("-set %s: %w", edits.String(), err))
	}
	// Only points with engine telemetry (-set observe.engine=true) report.
	// Sweep points run concurrently; labeled slog lines interleave cleanly
	// where a single rewritten line could not.
	obs.SetEngineProgressHook(func(p obs.EngineProgress) {
		slog.Info("engine", "cmd", "mirabench", "point", p.Label, "state", p.String())
	})

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
	// Always tally what the sweep points did (workers call in
	// concurrently); -progress additionally logs each point.
	var (
		mu  sync.Mutex
		cur expTiming // the running experiment's entry
	)
	opts.Progress = func(p exp.Progress) {
		mu.Lock()
		defer mu.Unlock()
		if p.Reused {
			cur.PointsReused++
		} else {
			cur.PointsRun++
		}
		if *progress {
			slog.Info("point", "arch", p.Scenario.Arch, "traffic", p.Scenario.Traffic.Kind, "rate", p.Scenario.Traffic.Rate,
				"elapsed", p.Elapsed.Round(time.Millisecond), "reused", p.Reused)
		}
	}

	if args[0] == "list" {
		for _, e := range exp.Experiments {
			fmt.Printf("  %-8s %s\n", e.ID, e.Desc)
		}
		return
	}

	var selected []exp.Experiment
	if args[0] == "all" {
		selected = exp.Experiments
	} else {
		byID := map[string]exp.Experiment{}
		for _, e := range exp.Experiments {
			byID[e.ID] = e
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
			slog.Info("experiment start", "id", e.ID)
		}
		cur = expTiming{ID: e.ID}
		start := time.Now()
		tb, err := e.Run(ctx, opts)
		elapsed := time.Since(start)
		if ctx.Err() != nil {
			slog.Error("interrupted", "cmd", "mirabench", "experiment", e.ID)
			os.Exit(130)
		}
		if err != nil {
			cli.Fatal("mirabench", fmt.Errorf("%s: %w", e.ID, err))
		}
		cur.Seconds = elapsed.Seconds()
		timings = append(timings, cur)
		if *csv {
			fmt.Printf("# %s\n%s\n", tb.ID, tb.CSV())
		} else {
			fmt.Println(tb.String())
			// Timing goes to stderr so stdout stays byte-identical
			// across worker counts and machines.
			slog.Info("experiment done", "id", e.ID, "elapsed", elapsed.Round(time.Millisecond),
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
func writeSVG(dir string, tb stats.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	svg, err := exp.SVG(tb, "")
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

usage: mirabench [-quick] [-csv] [-svg DIR] [-seed N] [-workers N] [-set key=value]... [-progress] [-timing FILE] [-cpuprofile FILE] <experiment>... | all | list

Experiments named together share simulations: "mirabench fig11a fig12a fig12d"
simulates the uniform-random grid once and prints what three runs would.
`)
	flag.PrintDefaults()
}

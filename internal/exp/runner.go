package exp

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"time"

	"mira/internal/noc"
	"mira/internal/scenario"
)

// The parallel experiment engine. Every figure of the MIRA evaluation is
// a grid of independent simulation points — architectures × injection
// rates × workloads — and a point is a scenario. A driver lists its
// points' scenarios, runPoints stamps each one's seed (pointSeed) and
// fans them out on runAll's worker pool, and run turns each scenario
// into its outcome. RunBatch runs mirasim's and the serving layer's
// scenario lists on the same pool and the same run, seeds untouched.
//
// Determinism: a point's seed is a function of the scenario list alone,
// each point writes only its own result slot, and no state is shared
// between points (each elaborates its own Design/Network/Sim), so the
// output is bit-identical for every worker count, including 1.
//
// Cancellation: runAll threads its context into every point, so a
// canceled sweep stops dispatching new points, the in-flight simulations
// return early (noc.Sim.Run polls the context on a cycle stride), and
// the workers drain before runAll returns. Points that never ran keep
// their zero values.

// Progress describes one scenario a sweep finished: simulated, or served
// from Options.Reuse instead (Reused), in which case it cost nothing
// because an earlier sweep already simulated it.
type Progress struct {
	Scenario scenario.Scenario
	Elapsed  time.Duration
	Reused   bool
}

// SeedFor derives the RNG seed for one sweep point from the experiment
// seed and the point's index (splitmix64 finalizer, so neighbouring
// indices yield uncorrelated streams).
func SeedFor(base int64, index int) int64 {
	z := uint64(base) + 0x9E3779B97F4A7C15*uint64(index+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// pointSeed is the seed rule, and the only place a sweep point's seed is
// chosen: point i of a scenario list runs on SeedFor of its scenario's
// seed (the experiment seed, or a -set seed edit) and i.
func pointSeed(sc scenario.Scenario, i int) int64 { return SeedFor(sc.Seed, i) }

// runAll calls point(ctx, i) for every i < n on up to workers goroutines
// (GOMAXPROCS when 0), dispatching in index order. When ctx ends it
// stops dispatching, lets the in-flight points return (they observe the
// same context) and waits for every worker to exit.
func runAll(ctx context.Context, workers, n int, point func(ctx context.Context, i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers = min(workers, n); workers <= 1 {
		for i := 0; i < n && ctx.Err() == nil; i++ {
			point(ctx, i)
		}
		return
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				point(ctx, i)
			}
		}()
	}
dispatch:
	for i := 0; i < n; i++ {
		select {
		case idx <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(idx)
	wg.Wait()
}

// runPoints seeds the sweep points scs (pointSeed) and runs point(ctx,
// i, scs[i]) for each on o's pool; a point stores its own values at its
// index. It returns the points' errors joined in list order.
func runPoints(ctx context.Context, o Options, scs []scenario.Scenario, point func(ctx context.Context, i int, sc scenario.Scenario) error) error {
	for i := range scs {
		scs[i].Seed = pointSeed(scs[i], i)
	}
	errs := make([]error, len(scs))
	runAll(ctx, o.Workers, len(scs), func(ctx context.Context, i int) { errs[i] = point(ctx, i, scs[i]) })
	return errors.Join(errs...)
}

// sweep is the simulated grid: mk builds the scenario of every (row,
// col) pair, listed in row-major order, and run simulates each one (or
// serves it from o.Reuse). The outcomes come back indexed [row][col].
func sweep[R, C any](ctx context.Context, o Options, rows []R, cols []C, mk func(Options, R, C) scenario.Scenario) ([][]scenario.Outcome, error) {
	scs := make([]scenario.Scenario, len(rows)*len(cols))
	for i, r := range rows {
		for j, c := range cols {
			scs[i*len(cols)+j] = mk(o, r, c)
		}
	}
	outs := make([]scenario.Outcome, len(scs))
	err := runPoints(ctx, o, scs, func(ctx context.Context, i int, sc scenario.Scenario) (err error) {
		outs[i], err = run(ctx, o, sc, nil)
		return err
	})
	if err != nil {
		return nil, err
	}
	grid := make([][]scenario.Outcome, len(rows))
	for i := range grid {
		grid[i] = outs[i*len(cols) : (i+1)*len(cols)]
	}
	return grid, nil
}

// BatchOptions controls RunBatch.
type BatchOptions struct {
	// Workers caps the worker pool; 0 means GOMAXPROCS.
	Workers int `json:"workers,omitempty"`
	// Timeout bounds each individual run (elaboration + simulation);
	// a run over budget returns its partial result with
	// Result.Canceled set. 0 means no per-run bound.
	Timeout time.Duration `json:"timeout,omitempty"`

	// OnStart, when non-nil, is called from the worker goroutine right
	// after scenario i elaborates and before its simulation starts. The
	// serving layer (internal/serve) uses it to publish the run's live
	// observability collector. Hooks must be safe for concurrent calls
	// from multiple workers.
	OnStart func(i int, e *scenario.Elaboration) `json:"-"`
	// OnDone, when non-nil, is called from the worker goroutine as soon
	// as run i finishes (successfully or not), before the batch as a
	// whole completes.
	OnDone func(r BatchResult) `json:"-"`
}

// BatchResult pairs one scenario with its outcome. Exactly one of
// Result (Err == "") and Err is meaningful; a run that was cut off by
// the per-run timeout or the batch context still reports its partial
// Result with Canceled set.
type BatchResult struct {
	Index    int               `json:"index"`
	Scenario scenario.Scenario `json:"scenario"`
	Result   noc.Result        `json:"result"`
	Err      string            `json:"error,omitempty"`
}

// RunBatch runs scenarios as given (each keeps its own seed) on the
// sweeps' pool and run, without a reuse scope, and returns one result
// per scenario, in input order. Invalid scenarios fail individually
// (their Err is set) without affecting the rest. When ctx is canceled
// the batch stops dispatching, in-flight runs return partial results,
// and never-started entries carry an error saying so. This is mirasim
// -scenario's and the serving layer's entry point: scenarios in
// (scenario.DecodeBatch reads them from JSON), JSON-serializable
// results out.
func RunBatch(ctx context.Context, scs []scenario.Scenario, o BatchOptions) []BatchResult {
	out := make([]BatchResult, len(scs))
	for i, sc := range scs {
		out[i] = BatchResult{Index: i, Scenario: sc, Err: "batch canceled before this scenario started"}
	}
	runAll(ctx, o.Workers, len(scs), func(ctx context.Context, i int) {
		if o.Timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, o.Timeout)
			defer cancel()
		}
		var start func(*scenario.Elaboration)
		if o.OnStart != nil {
			start = func(e *scenario.Elaboration) { o.OnStart(i, e) }
		}
		res, err := run(ctx, Options{}, scs[i], start)
		out[i] = BatchResult{Index: i, Scenario: scs[i], Result: res.Result}
		if err != nil {
			out[i].Err = err.Error()
		}
		if o.OnDone != nil {
			o.OnDone(out[i])
		}
	})
	return out
}

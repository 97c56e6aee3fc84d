package exp

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"mira/internal/noc"
	"mira/internal/scenario"
)

// The parallel experiment engine. Every figure of the MIRA evaluation is
// a grid of fully independent simulation points — architectures ×
// injection rates × workloads — so the drivers in this package describe
// their sweeps as []Point and RunAll fans the points out across a worker
// pool.
//
// Determinism: each point receives an Options copy whose Seed is derived
// only from (Options.Seed, point index) via SeedFor, and results land in
// a slice slot owned by that index. No state is shared between points
// (each point elaborates its own Design/Network/Sim), so the output is
// bit-identical for every worker count, including 1. The per-point seed
// split also means distinct sweep points draw statistically independent
// random streams instead of replaying one shared stream.
//
// Cancellation: RunAll threads its context into every point, so a
// canceled sweep stops dispatching new points, the in-flight simulations
// return early (noc.Sim.Run polls the context on a cycle stride), and
// the workers drain before RunAll returns. Points that never ran are
// left as zero values in the result slice.

// Point is one independent simulation of a sweep: a label for progress
// reporting and the closure that runs it. The closure must derive all
// of its randomness from the Options it is handed and must not touch
// state shared with other points; it should pass the context down to
// the simulation so sweeps cancel promptly.
type Point[T any] struct {
	Label string
	Run   func(ctx context.Context, o Options) T
}

// Progress describes one completed sweep point.
type Progress struct {
	Done    int // points completed so far, including this one
	Total   int
	Index   int // the point's position in the input slice
	Label   string
	Elapsed time.Duration
	// Ran and Reused count the point's simulations: executed, and
	// served from Options.Reuse instead. A point with Ran == 0 cost
	// nothing because an earlier sweep already simulated it.
	Ran, Reused int
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

// workerCount resolves Options.Workers, defaulting to GOMAXPROCS.
func (o Options) workerCount() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// RunAll executes the points on a pool of o.Workers goroutines
// (GOMAXPROCS when zero) and returns their results in input order.
// Each point runs with o.Seed replaced by SeedFor(o.Seed, index), so
// the result slice is identical no matter how many workers run it or
// in which order points are scheduled.
//
// When ctx is canceled, RunAll stops handing out further points, lets
// the in-flight points return (they observe the same context), waits
// for all workers to exit, and returns the partially filled slice.
func RunAll[T any](ctx context.Context, o Options, points []Point[T]) []T {
	out := make([]T, len(points))
	if len(points) == 0 {
		return out
	}
	if ctx == nil {
		ctx = context.Background()
	}
	workers := o.workerCount()
	if workers > len(points) {
		workers = len(points)
	}
	progress := o.Progress
	total := len(points)

	// Points never see the pool controls: nested sweeps inside a point
	// run inline, and progress is reported only at point granularity.
	po := o
	po.Workers = 1
	po.Progress = nil

	var mu sync.Mutex // serializes progress callbacks
	done := 0
	runPoint := func(i int) {
		opts := po
		opts.Seed = SeedFor(o.Seed, i)
		opts.tally = new(tally)
		start := time.Now()
		out[i] = points[i].Run(ctx, opts)
		if progress == nil {
			return
		}
		elapsed := time.Since(start)
		mu.Lock()
		defer mu.Unlock()
		done++
		progress(Progress{Done: done, Total: total, Index: i, Label: points[i].Label, Elapsed: elapsed,
			Ran: opts.tally.ran, Reused: opts.tally.reused})
	}

	if workers <= 1 {
		for i := range points {
			if ctx.Err() != nil {
				break
			}
			runPoint(i)
		}
		return out
	}

	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				runPoint(i)
			}
		}()
	}
dispatch:
	for i := range points {
		select {
		case idx <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(idx)
	wg.Wait()
	return out
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
// RunAll pool and returns one result per scenario, in input order.
// Invalid scenarios fail individually (their Err is set) without
// affecting the rest. When ctx is canceled the batch stops dispatching,
// in-flight runs return partial results, and never-started entries
// carry an error saying so. This is mirasim -scenario's and the serving
// layer's entry point: scenarios in (scenario.DecodeBatch reads them
// from JSON), JSON-serializable results out.
func RunBatch(ctx context.Context, scs []scenario.Scenario, o BatchOptions) []BatchResult {
	points := make([]Point[*BatchResult], len(scs))
	for i, sc := range scs {
		points[i].Run = func(ctx context.Context, _ Options) *BatchResult {
			if o.Timeout > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, o.Timeout)
				defer cancel()
			}
			br := &BatchResult{Index: i, Scenario: sc}
			e, err := sc.Elaborate()
			if err == nil {
				if o.OnStart != nil {
					o.OnStart(i, e)
				}
				var out scenario.Outcome
				out, err = e.Run(ctx)
				br.Result = out.Result
			}
			if err != nil {
				br.Err = err.Error()
			}
			if o.OnDone != nil {
				o.OnDone(*br)
			}
			return br
		}
	}
	out := make([]BatchResult, len(scs))
	for i, br := range RunAll(ctx, Options{Workers: o.Workers}, points) {
		if br == nil {
			br = &BatchResult{Index: i, Scenario: scs[i], Err: "batch canceled before this scenario started"}
		}
		out[i] = *br
	}
	return out
}

// grid runs f at every (row, col) pair as one RunAll point each, in
// row-major order (the order fixes each point's SeedFor seed), and
// returns the values indexed [row][col] or the first error in that order.
func grid[R, C, T any](ctx context.Context, o Options, rows []R, cols []C, f func(context.Context, Options, R, C) (T, error)) ([][]T, error) {
	type result struct {
		v   T
		err error
	}
	points := make([]Point[result], 0, len(rows)*len(cols))
	for _, r := range rows {
		for _, c := range cols {
			points = append(points, Point[result]{Label: fmt.Sprint(r, " ", c), Run: func(ctx context.Context, o Options) result {
				v, err := f(ctx, o, r, c)
				return result{v, err}
			}})
		}
	}
	flat := RunAll(ctx, o, points)
	out := make([][]T, len(rows))
	for i := range out {
		out[i] = make([]T, len(cols))
		for j := range out[i] {
			p := flat[i*len(cols)+j]
			if p.err != nil {
				return nil, p.err
			}
			out[i][j] = p.v
		}
	}
	return out, nil
}

// sweep is the simulated grid: mk builds each point's scenario from the
// point's options, and run simulates it (or serves it from o.Reuse).
func sweep[R, C any](ctx context.Context, o Options, rows []R, cols []C, mk func(Options, R, C) scenario.Scenario) ([][]scenario.Outcome, error) {
	return grid(ctx, o, rows, cols, func(ctx context.Context, o Options, r R, c C) (scenario.Outcome, error) {
		return run(ctx, o, mk(o, r, c))
	})
}

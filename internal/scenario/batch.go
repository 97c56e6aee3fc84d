package scenario

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"mira/internal/noc"
)

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
	OnStart func(i int, e *Elaboration) `json:"-"`
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
	Index    int        `json:"index"`
	Scenario Scenario   `json:"scenario"`
	Result   noc.Result `json:"result"`
	Err      string     `json:"error,omitempty"`
}

// RunBatch executes a set of scenarios on a worker pool and returns one
// result per scenario, in input order. Invalid scenarios fail
// individually (their Err is set) without affecting the rest. When ctx
// is canceled the batch stops dispatching, in-flight runs return
// partial results, all workers exit before RunBatch returns, and
// never-started entries carry an error saying so.
//
// This is the serving-layer entry point: scenarios in (DecodeBatch
// reads them from JSON), JSON-serializable results out.
func RunBatch(ctx context.Context, scs []Scenario, o BatchOptions) []BatchResult {
	out := make([]BatchResult, len(scs))
	for i, sc := range scs {
		out[i] = BatchResult{Index: i, Scenario: sc, Err: "batch canceled before this scenario started"}
	}
	if len(scs) == 0 {
		return out
	}
	if ctx == nil {
		ctx = context.Background()
	}
	workers := o.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(scs) {
		workers = len(scs)
	}

	runOne := func(i int) {
		runCtx := ctx
		cancel := context.CancelFunc(func() {})
		if o.Timeout > 0 {
			runCtx, cancel = context.WithTimeout(ctx, o.Timeout)
		}
		defer cancel()
		br := BatchResult{Index: i, Scenario: scs[i]}
		e, err := scs[i].Elaborate()
		if err == nil {
			if o.OnStart != nil {
				o.OnStart(i, e)
			}
			br.Result = e.Sim.Run(runCtx)
			if e.Obs != nil {
				// Flush the trailing partial sample window so serving
				// readers see the run's final state.
				err = e.Obs.Close()
			}
		}
		if err != nil {
			br.Err = err.Error()
		}
		out[i] = br
		if o.OnDone != nil {
			o.OnDone(br)
		}
	}

	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				runOne(i)
			}
		}()
	}
dispatch:
	for i := range scs {
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

// DecodeBatch reads a batch description: either a JSON array of
// scenarios or a single scenario object, decoded as strictly as Decode.
func DecodeBatch(r io.Reader) ([]Scenario, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("scenario: reading batch input: %w", err)
	}
	if t := bytes.TrimLeft(data, " \t\r\n"); len(t) == 0 || t[0] != '[' {
		sc, err := Decode(data)
		if err != nil {
			return nil, err
		}
		return []Scenario{sc}, nil
	}
	var scs []Scenario
	if err := decodeStrict(data, &scs); err != nil {
		return nil, fmt.Errorf("scenario: batch array: %w", err)
	}
	return scs, nil
}

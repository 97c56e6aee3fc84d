package exp

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"mira/internal/core"
	"mira/internal/scenario"
)

// TestSeedForDistinct checks that neighbouring point indices get
// well-separated seeds for any base seed.
func TestSeedForDistinct(t *testing.T) {
	for _, base := range []int64{0, 1, 42, -7, 1 << 40} {
		seen := map[int64]int{}
		for i := 0; i < 1000; i++ {
			s := SeedFor(base, i)
			if prev, dup := seen[s]; dup {
				t.Fatalf("SeedFor(%d, %d) == SeedFor(%d, %d) == %d", base, i, base, prev, s)
			}
			seen[s] = i
		}
	}
	if SeedFor(1, 0) == SeedFor(2, 0) {
		t.Error("different base seeds map index 0 to the same point seed")
	}
}

// TestRunAllOrdering checks every point runs once, at its own index, no
// matter how many workers race.
func TestRunAllOrdering(t *testing.T) {
	for _, workers := range []int{1, 3, 8, 100} {
		got := make([]int, 64)
		runAll(bg(), workers, len(got), func(_ context.Context, i int) { got[i] += i * i })
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: point %d holds %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

// TestRunAllSeeds checks the seed rule: point i of a sweep runs on
// SeedFor(base, i), where the base is the experiment seed or a seed
// edit, whatever the worker count.
func TestRunAllSeeds(t *testing.T) {
	for _, c := range []struct {
		o    Options
		base int64
	}{
		{Options{Seed: 42, Workers: 4}, 42},
		{Options{Seed: 42, Workers: 1, Edits: scenario.Edits{"seed=7"}}, 7},
	} {
		scs := make([]scenario.Scenario, 16)
		for i := range scs {
			scs[i] = c.o.Scenario(core.Arch2DB)
		}
		got := make([]int64, len(scs))
		err := runPoints(bg(), c.o, scs, func(_ context.Context, i int, sc scenario.Scenario) error {
			got[i] = sc.Seed
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range got {
			if want := SeedFor(c.base, i); s != want {
				t.Errorf("base %d: point %d ran with seed %d, want SeedFor(%d, %d) = %d", c.base, i, s, c.base, i, want)
			}
		}
	}
}

// TestRunAllProgress checks a sweep reports each of its scenarios once,
// as simulated, carrying the point's stamped seed.
func TestRunAllProgress(t *testing.T) {
	o := Options{Warmup: 20, Measure: 100, Drain: 1000, Seed: 42, Workers: 8}
	var mu sync.Mutex
	seeds := map[int64]bool{}
	o.Progress = func(p Progress) {
		mu.Lock()
		defer mu.Unlock()
		if p.Reused {
			t.Errorf("%s reported as reused without a scope", p.Scenario.Arch)
		}
		seeds[p.Scenario.Seed] = true
	}
	rates := []float64{0.05, 0.10}
	if _, err := sweep(bg(), o, rates, core.Archs, func(o Options, rate float64, a core.Arch) scenario.Scenario {
		return o.synthetic(a, "ur", rate)
	}); err != nil {
		t.Fatal(err)
	}
	n := len(rates) * len(core.Archs)
	for i := 0; i < n; i++ {
		if !seeds[SeedFor(42, i)] {
			t.Errorf("no progress for point %d", i)
		}
	}
	if len(seeds) != n {
		t.Errorf("progress for %d distinct points, want %d", len(seeds), n)
	}
}

// TestRunAllCancel checks the pool's cancellation contract: a canceled
// context stops dispatch, in-flight points observe it and return, every
// worker exits (runAll returning is the proof), and never-run points are
// left as zero values.
func TestRunAllCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	got := make([]int, 32)
	time.AfterFunc(20*time.Millisecond, cancel)
	done := make(chan struct{})
	go func() {
		runAll(ctx, 4, len(got), func(ctx context.Context, i int) {
			<-ctx.Done() // a long simulation observing its context
			got[i] = 1
		})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("runAll did not return after cancellation: workers stuck")
	}
	ran := 0
	for _, v := range got {
		ran += v
	}
	if ran == len(got) {
		t.Error("every point ran; cancellation never stopped dispatch")
	}
	if ran == 0 {
		t.Error("no in-flight point completed after cancel")
	}
}

// TestRunAllDeterminism is the headline guarantee: a real simulation
// sweep produces byte-identical tables with 1 worker and with 8.
func TestRunAllDeterminism(t *testing.T) {
	o := tiny()
	run := func(workers int) [][]scenario.Outcome {
		so := o
		so.Workers = workers
		var sims simCount
		so.Progress = sims.add
		res, err := sweep(context.Background(), so, []float64{0.05, 0.30}, core.Archs, func(o Options, rate float64, a core.Arch) scenario.Scenario {
			return o.synthetic(a, "ur", rate)
		})
		if err != nil {
			t.Fatal(err)
		}
		if ran := sims.ran.Load(); ran != int64(2*len(core.Archs)) {
			t.Fatalf("workers=%d: %d simulations ran, want %d: the arm compares nothing", workers, ran, 2*len(core.Archs))
		}
		return res
	}
	seq := run(1)
	par := run(8)
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("sweep results differ between workers=1 and workers=8")
	}
}

// longUR is a scenario whose windows are far too long to ever finish in
// a test; only cancellation ends it.
func longUR() scenario.Scenario {
	return scenario.Scenario{Arch: "2DB", Traffic: scenario.Traffic{Kind: "ur", Rate: 0.2}, Measure: 1 << 40, Seed: 1}
}

// smallUR is a scenario that completes in a few milliseconds.
func smallUR() scenario.Scenario {
	return scenario.Scenario{Arch: "2DB", Traffic: scenario.Traffic{Kind: "ur", Rate: 0.1}, Warmup: 50, Measure: 200, Drain: 1000, Seed: 42}
}

// TestRunBatchCancel: canceling the batch context stops dispatch, ends
// in-flight runs within a stride, and every worker exits (RunBatch
// returning at all is the exit proof; the deadline bounds it).
func TestRunBatchCancel(t *testing.T) {
	scs := make([]scenario.Scenario, 8)
	for i := range scs {
		scs[i] = longUR()
	}
	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(50*time.Millisecond, cancel)
	defer timer.Stop()

	done := make(chan []BatchResult, 1)
	go func() { done <- RunBatch(ctx, scs, BatchOptions{Workers: 2}) }()
	var out []BatchResult
	select {
	case out = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("RunBatch did not return after cancellation: workers stuck")
	}
	ran, skipped := 0, 0
	for _, br := range out {
		switch {
		case br.Err != "":
			if !strings.Contains(br.Err, "canceled") {
				t.Errorf("entry %d: unexpected error %q", br.Index, br.Err)
			}
			skipped++
		case br.Result.Canceled:
			ran++
		default:
			t.Errorf("entry %d completed a %d-cycle run; cancellation did not reach it", br.Index, scs[0].Measure)
		}
	}
	if ran == 0 {
		t.Error("no in-flight run reported a partial canceled result")
	}
	if skipped == 0 {
		t.Error("no queued scenario was skipped; cancellation arrived too late to test dispatch")
	}
}

// TestRunBatchPrecanceled: nothing runs, every entry says why.
func TestRunBatchPrecanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out := RunBatch(ctx, []scenario.Scenario{longUR(), longUR()}, BatchOptions{Workers: 2})
	for _, br := range out {
		if !strings.Contains(br.Err, "canceled before") {
			t.Errorf("entry %d: err = %q, want the never-started marker", br.Index, br.Err)
		}
	}
}

// TestRunBatchTimeout: the per-run timeout cancels an over-budget run
// without failing the batch entry.
func TestRunBatchTimeout(t *testing.T) {
	out := RunBatch(context.Background(), []scenario.Scenario{longUR()}, BatchOptions{
		Workers: 1, Timeout: 30 * time.Millisecond,
	})
	if out[0].Err != "" {
		t.Fatalf("timeout should yield a partial result, not an error: %q", out[0].Err)
	}
	if !out[0].Result.Canceled {
		t.Error("over-budget run not marked Canceled")
	}
}

// TestRunBatchMixedValidity: invalid entries fail individually while
// valid ones complete.
func TestRunBatchMixedValidity(t *testing.T) {
	good := smallUR()
	bad := smallUR()
	bad.Arch = "4DX"
	out := RunBatch(context.Background(), []scenario.Scenario{good, bad}, BatchOptions{Workers: 2})
	if out[0].Err != "" || out[0].Result.Ejected == 0 {
		t.Errorf("valid entry failed: err=%q ejected=%d", out[0].Err, out[0].Result.Ejected)
	}
	if out[1].Err == "" || !strings.Contains(out[1].Err, "unknown architecture") {
		t.Errorf("invalid entry err = %q", out[1].Err)
	}
}

// TestRunBatchJSON: the serialized path (DecodeBatch, RunBatch, results
// marshaled back) accepts both a single object and an array, and
// returns decodable results in input order.
func TestRunBatchJSON(t *testing.T) {
	runJSON := func(in string) (string, error) {
		scs, err := scenario.DecodeBatch(strings.NewReader(in))
		if err != nil {
			return "", err
		}
		out, err := json.Marshal(RunBatch(context.Background(), scs, BatchOptions{}))
		return string(out), err
	}
	sc := smallUR()
	data, err := sc.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	res, err := runJSON(string(data))
	if err != nil {
		t.Fatal(err)
	}
	out := decodeBatch(t, res)
	if len(out) != 1 || out[0].Err != "" || out[0].Result.Ejected == 0 {
		t.Errorf("single-object batch = %+v", out)
	}

	if res, err = runJSON("[" + string(data) + "," + string(data) + "]"); err != nil {
		t.Fatal(err)
	}
	out = decodeBatch(t, res)
	if len(out) != 2 || out[0].Index != 0 || out[1].Index != 1 {
		t.Fatalf("array batch order wrong: %+v", out)
	}
	// A batch runs each scenario on its own seed: equal entries, equal results.
	if !reflect.DeepEqual(out[0].Result, out[1].Result) {
		t.Errorf("equal scenarios ran differently: %v vs %v", out[0].Result.String(), out[1].Result.String())
	}

	if _, err := runJSON("not json"); err == nil {
		t.Error("malformed batch input accepted")
	}
}

func decodeBatch(t *testing.T, s string) []BatchResult {
	t.Helper()
	var out []BatchResult
	if err := json.Unmarshal([]byte(s), &out); err != nil {
		t.Fatalf("batch output not decodable: %v\n%s", err, s)
	}
	return out
}

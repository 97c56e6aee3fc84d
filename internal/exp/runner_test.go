package exp

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"sync/atomic"
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

// TestRunAllOrdering checks results land at their point's index no
// matter how many workers race.
func TestRunAllOrdering(t *testing.T) {
	points := make([]Point[int], 64)
	for i := range points {
		i := i
		points[i] = Point[int]{Label: "p", Run: func(context.Context, Options) int { return i * i }}
	}
	for _, workers := range []int{1, 3, 8, 100} {
		got := RunAll(context.Background(), Options{Workers: workers}, points)
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: point %d returned %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

// TestRunAllSeeds checks every point sees its derived seed and a
// worker-count-independent Options copy (Workers pinned to 1, no
// progress callback).
func TestRunAllSeeds(t *testing.T) {
	o := Options{Seed: 42, Workers: 4, Progress: func(Progress) {}}
	points := make([]Point[int64], 16)
	for i := range points {
		points[i] = Point[int64]{Label: "seed", Run: func(_ context.Context, po Options) int64 {
			if po.Workers != 1 || po.Progress != nil {
				t.Error("pool controls leaked into a point's Options")
			}
			return po.Seed
		}}
	}
	got := RunAll(context.Background(), o, points)
	for i, s := range got {
		if want := SeedFor(42, i); s != want {
			t.Errorf("point %d ran with seed %d, want SeedFor(42, %d) = %d", i, s, i, want)
		}
	}
}

// TestRunAllProgress checks the callback fires once per point with a
// monotonically increasing Done count.
func TestRunAllProgress(t *testing.T) {
	var calls int
	lastDone := 0
	o := Options{Workers: 8}
	o.Progress = func(p Progress) {
		calls++
		if p.Done != lastDone+1 {
			t.Errorf("Done jumped from %d to %d", lastDone, p.Done)
		}
		lastDone = p.Done
		if p.Total != 20 {
			t.Errorf("Total = %d, want 20", p.Total)
		}
		if p.Label != "prog" {
			t.Errorf("Label = %q", p.Label)
		}
	}
	points := make([]Point[struct{}], 20)
	for i := range points {
		points[i] = Point[struct{}]{Label: "prog", Run: func(context.Context, Options) struct{} { return struct{}{} }}
	}
	RunAll(context.Background(), o, points)
	if calls != 20 {
		t.Errorf("progress fired %d times, want 20", calls)
	}
}

// TestRunAllCancel checks the pool's cancellation contract: a canceled
// context stops dispatch, in-flight points observe it and return, every
// worker exits (RunAll returning is the proof), and never-run points are
// left as zero values.
func TestRunAllCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	points := make([]Point[int], 32)
	for i := range points {
		points[i] = Point[int]{Label: "cancel", Run: func(ctx context.Context, _ Options) int {
			<-ctx.Done() // a long simulation observing its context
			return 1
		}}
	}
	time.AfterFunc(20*time.Millisecond, cancel)
	done := make(chan []int, 1)
	go func() { done <- RunAll(ctx, Options{Workers: 4}, points) }()
	var got []int
	select {
	case got = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("RunAll did not return after cancellation: workers stuck")
	}
	ran := 0
	for _, v := range got {
		ran += v
	}
	if ran == len(points) {
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
		var launched, ran int32
		so.Progress = func(p Progress) {
			atomic.AddInt32(&launched, 1)
			atomic.AddInt32(&ran, int32(p.Ran))
		}
		res, err := sweep(context.Background(), so, []float64{0.05, 0.30}, core.Archs, func(o Options, rate float64, a core.Arch) scenario.Scenario {
			return o.synthetic(a, "ur", rate)
		})
		if err != nil {
			t.Fatal(err)
		}
		if int(launched) != 2*len(core.Archs) {
			t.Fatalf("workers=%d: %d progress callbacks, want %d", workers, launched, 2*len(core.Archs))
		}
		if int(ran) != 2*len(core.Archs) {
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
		t.Errorf("array batch order wrong: %+v", out)
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

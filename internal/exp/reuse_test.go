package exp

import (
	"context"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"mira/internal/cmp"
	"mira/internal/core"
	"mira/internal/noc"
	"mira/internal/scenario"
)

// simCount counts the scenarios a sweep reports, simulated and reused,
// so a test can say how many simulations a driver really executed.
// Workers report concurrently, hence the atomics.
type simCount struct{ ran, reused atomic.Int64 }

func (c *simCount) add(p Progress) {
	if p.Reused {
		c.reused.Add(1)
	} else {
		c.ran.Add(1)
	}
}

// stored is the number of outcomes the scope holds.
func (s *Scope) stored() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.outs)
}

// sharingFigures are the eight drivers that read three shared grids:
// 11a/12a/12d the UR grid, 11b/12b the NUCA-UR grid, 11c/11d/12c the
// trace grid.
func sharingFigures() []Experiment {
	var out []Experiment
	for _, e := range Experiments {
		switch e.ID {
		case "fig11a", "fig11b", "fig11c", "fig11d", "fig12a", "fig12b", "fig12c", "fig12d":
			out = append(out, e)
		}
	}
	return out
}

// The three grids' sizes: 11a/12a/12d and 11b/12b each read a
// (rate × arch) grid, 11c/11d/12c the (workload × arch) grid.
var (
	ratePoints  = int64(len(URRates) * len(core.Archs))
	tracePoints = int64(len(cmp.Presented) * len(core.Archs))
)

func readGolden(t *testing.T, id string) string {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", "port", id+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	return string(want)
}

// TestReuseTablesIdentical renders the eight sharing figures three ways
// — racing each other on one scope, again from that scope once it is
// warm, and each alone on a cold scope — and holds every rendering to
// the figure's golden bytes. The shared scope must end up holding each
// distinct point once however the subtests interleave, and the warm
// pass must simulate nothing.
func TestReuseTablesIdentical(t *testing.T) {
	shared := portGoldenOpts()
	shared.Reuse = NewScope()
	render := func(t *testing.T, pass string, e Experiment, o Options) {
		t.Helper()
		tb, err := e.Run(bg(), o)
		if err != nil {
			t.Fatalf("%s (%s): %v", e.ID, pass, err)
		}
		if got, want := tb.String(), readGolden(t, e.ID); got != want {
			t.Errorf("%s rendered from a %s scope diverges from its golden:\n--- want ---\n%s\n--- got ---\n%s",
				e.ID, pass, want, got)
		}
	}
	t.Run("racing", func(t *testing.T) {
		for _, e := range sharingFigures() {
			t.Run(e.ID, func(t *testing.T) {
				t.Parallel()
				render(t, "racing", e, shared)
			})
		}
	})
	distinct := 2*ratePoints + tracePoints
	if got := int64(shared.Reuse.stored()); got != distinct {
		t.Errorf("shared scope stores %d outcomes, want %d", got, distinct)
	}

	var warm simCount
	shared.Progress = warm.add
	for _, e := range sharingFigures() {
		render(t, "warm", e, shared)
		cold := portGoldenOpts()
		cold.Reuse = NewScope()
		render(t, "cold", e, cold)
	}
	if ran := warm.ran.Load(); ran != 0 {
		t.Errorf("warm pass ran %d simulations, want 0", ran)
	}
	if got, want := warm.reused.Load(), 5*ratePoints+3*tracePoints; got != want {
		t.Errorf("warm pass reused %d outcomes, want %d", got, want)
	}
}

// countdownCtx reports cancellation from its n-th Err poll on: a
// cancellation that lands mid-simulation at the same cycle on every
// host, where a timer would not. runAll polls Err once per point and
// Sim.Run once per noc.CancelCheckStride cycles.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestReuseCanceledSweepStoresNothing cancels a sweep inside its second
// point. The finished first point stays stored, the canceled one must
// not be, and the rerun simulates everything that was cut short.
func TestReuseCanceledSweepStoresNothing(t *testing.T) {
	o := tiny()
	o.Workers = 1
	o.Reuse = NewScope()
	ur := func(o Options, rate float64, a core.Arch) scenario.Scenario { return o.synthetic(a, "ur", rate) }
	rates := []float64{0.10}
	perPoint := (o.Warmup+o.Measure)/noc.CancelCheckStride + 2 // runAll's poll + Sim.Run's, at least
	ctx := &countdownCtx{Context: context.Background()}
	ctx.left.Store(perPoint + 2) // runs out inside point 1
	cut, err := sweep(ctx, o, rates, core.Archs, ur)
	if err != nil {
		t.Fatal(err)
	}
	if r := cut[0][0].Result; r.Canceled || r.Ejected == 0 {
		t.Fatalf("point 0 should have completed before the cancellation: %v", r.String())
	}
	if r := cut[0][1].Result; !r.Canceled {
		t.Fatalf("point 1 should have been canceled mid-flight: %v", r.String())
	}
	if n := o.Reuse.stored(); n != 1 {
		t.Fatalf("scope stores %d outcomes after the canceled sweep, want only point 0", n)
	}

	var rerun simCount
	o.Progress = rerun.add
	full, err := sweep(bg(), o, rates, core.Archs, ur)
	if err != nil {
		t.Fatal(err)
	}
	if ran, reused := rerun.ran.Load(), rerun.reused.Load(); ran != int64(len(core.Archs)-1) || reused != 1 {
		t.Errorf("rerun ran %d and reused %d, want %d and 1", ran, reused, len(core.Archs)-1)
	}
	for j, a := range core.Archs {
		if r := full[0][j].Result; r.Canceled || r.Ejected == 0 {
			t.Errorf("%s: rerun result is not a complete simulation: %v", a, r.String())
		}
	}
}

// TestReuseFailedRunStoresNothing: an elaboration error is returned to
// every caller that asks, never remembered.
func TestReuseFailedRunStoresNothing(t *testing.T) {
	o := tiny()
	o.Reuse = NewScope()
	var sims simCount
	o.Progress = sims.add
	for i := 0; i < 2; i++ {
		if _, err := run(bg(), o, o.trace(core.Arch2DB, "no-such-workload", ""), nil); err == nil {
			t.Fatal("run accepted an unknown workload")
		}
	}
	if sims.ran.Load() != 0 || sims.reused.Load() != 0 {
		t.Errorf("failing run reported: ran %d reused %d, want neither", sims.ran.Load(), sims.reused.Load())
	}
	if n := o.Reuse.stored(); n != 0 {
		t.Errorf("scope stores %d outcomes after failed runs, want 0", n)
	}
}

// TestReuseKey pins what identifies a point: everything that reaches
// the simulation (seed, windows, step mode, shards, traffic, overrides)
// and nothing that only steers the harness (Workers, Progress). An
// observed scenario is never served from the table.
func TestReuseKey(t *testing.T) {
	var sims simCount
	base := Options{Warmup: 50, Measure: 200, Drain: 2000, TraceCycles: 500, Seed: 42, Reuse: NewScope(), Progress: sims.add}
	ur := func(o Options) scenario.Scenario { return o.synthetic(core.Arch2DB, "ur", 0.10) }
	mustRun(bg(), base, ur(base))
	if sims.ran.Load() != 1 {
		t.Fatalf("first request ran %d simulations", sims.ran.Load())
	}

	same := []struct {
		name string
		mut  func(*Options)
	}{
		{"Workers", func(o *Options) { o.Workers = 7 }},
		{"Progress", func(o *Options) { o.Progress = func(p Progress) { sims.add(p) } }},
	}
	for _, c := range same {
		o := base
		c.mut(&o)
		mustRun(bg(), o, ur(o))
		if sims.ran.Load() != 1 {
			t.Errorf("%s entered the key: the same point simulated again", c.name)
		}
	}

	differ := []struct {
		name string
		mk   func(o Options) scenario.Scenario
		mut  func(*Options)
	}{
		{"Seed", ur, func(o *Options) { o.Seed++ }},
		{"Warmup", ur, func(o *Options) { o.Warmup++ }},
		{"Measure", ur, func(o *Options) { o.Measure++ }},
		{"Drain", ur, func(o *Options) { o.Drain++ }},
		{"step_mode", ur, func(o *Options) { o.Edits = scenario.Edits{"step_mode=checked"} }},
		{"shards", ur, func(o *Options) { o.Edits = scenario.Edits{"shards=2"} }},
		{"arch", func(o Options) scenario.Scenario { return o.synthetic(core.Arch3DM, "ur", 0.10) }, nil},
		{"traffic kind", func(o Options) scenario.Scenario { return o.synthetic(core.Arch2DB, "nuca", 0.10) }, nil},
		{"traffic rate", func(o Options) scenario.Scenario { return o.synthetic(core.Arch2DB, "ur", 0.11) }, nil},
		{"short fraction", func(o Options) scenario.Scenario {
			sc := ur(o)
			sc.Traffic.ShortFrac = 0.5
			return sc
		}, nil},
		{"VCs override", func(o Options) scenario.Scenario {
			sc := ur(o)
			sc.VCs = 4
			return sc
		}, nil},
		{"pipeline override", func(o Options) scenario.Scenario {
			sc := ur(o)
			sc.SpecSA = true
			return sc
		}, nil},
	}
	for i, c := range differ {
		o := base
		if c.mut != nil {
			c.mut(&o)
		}
		mustRun(bg(), o, c.mk(o))
		if want := int64(2 + i); sims.ran.Load() != want {
			t.Fatalf("%s did not enter the key: ran %d simulations, want %d", c.name, sims.ran.Load(), want)
		}
	}
	if sims.reused.Load() != int64(len(same)) {
		t.Errorf("reused %d outcomes, want %d", sims.reused.Load(), len(same))
	}

	ran, stored := sims.ran.Load(), base.Reuse.stored()
	o := base
	o.Edits = scenario.Edits{"observe.window=100"}
	for i := 0; i < 2; i++ {
		if out := mustRun(bg(), o, ur(o)); out.Obs == nil {
			t.Fatal("observed scenario ran without its collector")
		}
	}
	if sims.ran.Load() != ran+2 || base.Reuse.stored() != stored {
		t.Errorf("observed scenario went through the table: ran %d (want %d), stored %d (want %d)",
			sims.ran.Load(), ran+2, base.Reuse.stored(), stored)
	}
}

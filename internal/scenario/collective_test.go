package scenario

import (
	"context"
	"strings"
	"testing"
)

func collectiveScenario(alg string, iters int) Scenario {
	return Scenario{
		Arch:    "2DB",
		Measure: 60000,
		Drain:   20000,
		Seed:    7,
		Chips:   &Chips{ChipsX: 1, ChipsY: 1, NodesX: 4, NodesY: 4},
		Traffic: Traffic{
			Kind:       "collective",
			Collective: &Collective{Algorithm: alg, Participants: 8, Iterations: iters},
		},
	}
}

func TestCollectiveValidate(t *testing.T) {
	good := collectiveScenario("ring-allreduce", 2)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid collective scenario rejected: %v", err)
	}
	cases := []struct {
		name   string
		mut    func(*Scenario)
		substr string
	}{
		{"missing block", func(s *Scenario) { s.Traffic.Collective = nil }, "collective block"},
		{"bad algorithm", func(s *Scenario) { s.Traffic.Collective.Algorithm = "allgather" }, "unknown algorithm"},
		{"negative ranks", func(s *Scenario) { s.Traffic.Collective.Participants = -1 }, "participants"},
		{"negative flits", func(s *Scenario) { s.Traffic.Collective.MessageFlits = -2 }, "message_flits"},
		{"negative iters", func(s *Scenario) { s.Traffic.Collective.Iterations = -3 }, "iterations"},
		{"warmup set", func(s *Scenario) { s.Warmup = 100 }, "warmup"},
	}
	for _, c := range cases {
		sc := collectiveScenario("ring-allreduce", 2)
		c.mut(&sc)
		err := sc.Validate()
		if err == nil {
			t.Errorf("%s: accepted, want error", c.name)
		} else if !strings.Contains(err.Error(), c.substr) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.substr)
		}
	}
	// One rank too many for the elaborated 16-node fabric surfaces at
	// build time (Elaborate), where the topology is known.
	sc := collectiveScenario("ring-allreduce", 1)
	sc.Traffic.Collective.Participants = 17
	if _, err := sc.Elaborate(); err == nil {
		t.Error("17 participants on a 16-node fabric elaborated, want error")
	}
}

// TestCollectiveRun checks the wired closed loop end to end: the engine
// is attached to the Sim's delivery callback, every iteration
// completes, and the network-level packet count matches the schedule —
// the engine sees each delivery exactly once, also when the sharded
// epilogue delivers (and recycles) the packets.
func TestCollectiveRun(t *testing.T) {
	for i, alg := range []string{"ring-allreduce", "reduce-scatter", "tree-broadcast", "ring-allreduce"} {
		sc := collectiveScenario(alg, 3)
		if i == 3 {
			sc.Shards = 3
		}
		e, err := sc.Elaborate()
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if e.Collective == nil {
			t.Fatalf("%s: Elaboration.Collective is nil", alg)
		}
		if e.Sim.OnEject == nil {
			t.Fatalf("%s: Sim.OnEject not wired to the engine", alg)
		}
		res := e.Sim.Run(context.Background())
		if !e.Collective.Done() {
			t.Fatalf("%s: %d/3 iterations complete", alg, e.Collective.Completed())
		}
		// 8 ranks: ring 2(N-1) steps of N messages, reduce-scatter N-1, tree N-1 messages.
		want := 3 * map[string]int64{"ring-allreduce": 112, "reduce-scatter": 56, "tree-broadcast": 7}[alg]
		if res.Generated != want || res.Ejected != want {
			t.Fatalf("%s: generated/ejected %d/%d packets, want %d (3 iterations)",
				alg, res.Generated, res.Ejected, want)
		}
		rep := e.Collective.Report()
		if rep.Messages.N != want {
			t.Fatalf("%s: report aggregates %d messages, want %d", alg, rep.Messages.N, want)
		}
		if rep.Iteration.N != 3 {
			t.Fatalf("%s: report aggregates %d iterations, want 3", alg, rep.Iteration.N)
		}
	}
}

// TestCollectiveDeterminism pins the acceptance criterion: identical
// completion tables (Summary and StepTable, byte for byte) at any
// shards x stepmode setting.
func TestCollectiveDeterminism(t *testing.T) {
	run := func(shards int, mode string) (string, string) {
		sc := collectiveScenario("ring-allreduce", 2)
		sc.Shards = shards
		sc.StepMode = mode
		e, err := sc.Elaborate()
		if err != nil {
			t.Fatal(err)
		}
		e.Sim.Run(context.Background())
		return e.Collective.Summary().String(), e.Collective.StepTable().String()
	}
	refSum, refSteps := run(0, "")
	if !strings.Contains(refSum, "2/2 iterations complete") {
		t.Fatalf("reference run incomplete:\n%s", refSum)
	}
	for _, c := range []struct {
		shards int
		mode   string
	}{{1, "activity"}, {4, "activity"}, {-1, "activity"}, {1, "checked"}, {4, "checked"}} {
		sum, steps := run(c.shards, c.mode)
		if sum != refSum {
			t.Errorf("shards=%d mode=%s: summary diverges\nref:\n%s\ngot:\n%s", c.shards, c.mode, refSum, sum)
		}
		if steps != refSteps {
			t.Errorf("shards=%d mode=%s: step table diverges", c.shards, c.mode)
		}
	}
}

// TestCollectiveCancellation is the no-hang regression: canceling
// mid-collective must return promptly with Canceled set and a partial
// (not Done) engine, and the partial tables must still render.
func TestCollectiveCancellation(t *testing.T) {
	sc := collectiveScenario("ring-allreduce", 1000) // far more work than the window
	sc.Measure = 50_000_000
	sc.Drain = 1000
	e, err := sc.Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	e.Sim.OnCycle = func(cycle int64) {
		if cycle == 3000 {
			cancel()
		}
	}
	res := e.Sim.Run(ctx)
	if !res.Canceled {
		t.Fatal("result not marked Canceled")
	}
	if e.Collective.Done() {
		t.Fatal("engine claims Done after cancellation")
	}
	if e.Collective.Completed() >= 1000 {
		t.Fatalf("engine claims %d completed iterations", e.Collective.Completed())
	}
	sum := e.Collective.Summary().String()
	if !strings.Contains(sum, "incomplete") {
		t.Fatalf("partial summary missing the incomplete note:\n%s", sum)
	}
}

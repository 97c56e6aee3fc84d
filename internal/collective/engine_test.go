package collective

import (
	"reflect"
	"testing"

	"mira/internal/noc"
	"mira/internal/topology"
)

func mesh(x, y int) *topology.Topology { return topology.NewMesh2D(x, y, 1) }

func TestSnakeOrderAdjacency(t *testing.T) {
	topo := mesh(4, 4)
	order := snakeOrder(topo)
	if len(order) != 16 {
		t.Fatalf("snake order has %d nodes, want 16", len(order))
	}
	seen := map[topology.NodeID]bool{}
	for i, id := range order {
		if seen[id] {
			t.Fatalf("node %d appears twice in snake order", id)
		}
		seen[id] = true
		if i == 0 {
			continue
		}
		a, b := topo.Node(order[i-1]).Coord, topo.Node(id).Coord
		dist := abs(a.X-b.X) + abs(a.Y-b.Y)
		if dist != 1 {
			t.Errorf("snake order %d->%d: %v -> %v is %d hops, want 1", i-1, i, a, b, dist)
		}
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func TestProgramShapes(t *testing.T) {
	topo := mesh(4, 4)
	cases := []struct {
		alg     Algorithm
		ranks   int
		steps   int
		msgsPer int
	}{
		{RingAllReduce, 8, 14, 112}, // 2(N-1) steps, N msgs per step
		{RingAllReduce, 16, 30, 480},
		{ReduceScatter, 8, 7, 56}, // N-1 steps
		{TreeBroadcast, 8, 3, 7},  // ceil(log2 N) steps, N-1 msgs
		{TreeBroadcast, 12, 4, 11},
		{TreeBroadcast, 2, 1, 1},
	}
	for _, c := range cases {
		e, err := New(topo, Params{Algorithm: c.alg, Participants: c.ranks, MessageFlits: 1})
		if err != nil {
			t.Fatalf("%s/%d: %v", c.alg, c.ranks, err)
		}
		if e.steps != c.steps {
			t.Errorf("%s/%d: %d steps, want %d", c.alg, c.ranks, e.steps, c.steps)
		}
		if e.msgsPer != c.msgsPer {
			t.Errorf("%s/%d: %d msgs/iter, want %d", c.alg, c.ranks, e.msgsPer, c.msgsPer)
		}
		// The send programs must account for every message exactly once.
		total := 0
		for _, prog := range e.prog {
			total += len(prog)
		}
		if total != c.msgsPer {
			t.Errorf("%s/%d: programs hold %d sends, want %d", c.alg, c.ranks, total, c.msgsPer)
		}
		// And every send must land on a rank's receive schedule.
		recvs := 0
		for _, rs := range e.recvSteps {
			recvs += len(rs)
		}
		if recvs != c.msgsPer {
			t.Errorf("%s/%d: schedules expect %d receives, want %d", c.alg, c.ranks, recvs, c.msgsPer)
		}
	}
}

func TestTreeShape(t *testing.T) {
	e, err := New(mesh(4, 4), Params{Algorithm: TreeBroadcast, Participants: 8, MessageFlits: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Binomial over 8 ranks: root sends at steps 0,1,2 to ranks 1,2,4;
	// rank r receives at step floor(log2 r).
	if got := len(e.prog[0]); got != 3 {
		t.Fatalf("root has %d sends, want 3", got)
	}
	wantRecvStep := []int{-1, 0, 1, 1, 2, 2, 2, 2}
	for r, want := range wantRecvStep {
		if want == -1 {
			if len(e.recvSteps[r]) != 0 {
				t.Errorf("root expects %d receives, want 0", len(e.recvSteps[r]))
			}
			continue
		}
		if len(e.recvSteps[r]) != 1 || e.recvSteps[r][0] != want {
			t.Errorf("rank %d receive schedule %v, want [%d]", r, e.recvSteps[r], want)
		}
	}
	// Non-root sends are guarded by the single receive.
	for r, prog := range e.prog {
		for _, s := range prog {
			want := int32(1)
			if r == 0 {
				want = 0
			}
			if s.guard != want {
				t.Errorf("rank %d send guard %d, want %d", r, s.guard, want)
			}
		}
	}
}

func TestValidation(t *testing.T) {
	topo := mesh(4, 4)
	for _, p := range []Params{
		{Algorithm: "allreduce", Participants: 4, MessageFlits: 1}, // unknown name
		{Algorithm: RingAllReduce, Participants: 1, MessageFlits: 1},
		{Algorithm: RingAllReduce, Participants: 17, MessageFlits: 1},
		{Algorithm: RingAllReduce, Participants: 4, MessageFlits: 0},
		{Algorithm: RingAllReduce, Participants: 4, MessageFlits: 1, Iterations: -1},
	} {
		if _, err := New(topo, p); err == nil {
			t.Errorf("New(%+v) accepted, want error", p)
		}
	}
	if _, err := New(topo, Params{Algorithm: TreeBroadcast, MessageFlits: 2}); err != nil {
		t.Errorf("participants=0 (all nodes) rejected: %v", err)
	}
}

// deliver simulates the network delivering every spec after the given
// flight time, in issue order, and returns the count.
func deliver(e *Engine, specs []noc.Spec, cycle, flight int64) int {
	for _, s := range specs {
		e.OnDeliver(&noc.Packet{Src: s.Src, Dst: s.Dst, CreatedAt: cycle, EjectedAt: cycle + flight})
	}
	return len(specs)
}

// TestDependencyGating drives the engine by hand — no network — and
// checks the closed-loop contract: sends beyond a rank's guard never
// issue until the receives that unlock them are observed.
func TestDependencyGating(t *testing.T) {
	e, err := New(mesh(4, 4), Params{Algorithm: RingAllReduce, Participants: 4, MessageFlits: 1, Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Cycle 0: exactly one send per rank (step 0); nothing else is
	// unlocked because no rank has received anything.
	specs := e.Generate(0, nil, nil)
	if len(specs) != 4 {
		t.Fatalf("cycle 0 issued %d sends, want 4 (one step-0 send per rank)", len(specs))
	}
	// Without deliveries the engine must stay silent.
	if extra := e.Generate(1, nil, nil); len(extra) != 0 {
		t.Fatalf("no deliveries yet, but %d sends issued", len(extra))
	}
	// Deliver the step-0 messages; each rank's step-1 send unlocks.
	deliver(e, specs, 0, 5)
	specs = e.Generate(6, nil, nil)
	if len(specs) != 4 {
		t.Fatalf("after step-0 delivery %d sends issued, want 4", len(specs))
	}
	// Drain the rest of iteration 1: keep delivering what was issued.
	cycle := int64(7)
	delivered := 8
	for delivered < e.msgsPer {
		deliver(e, specs, cycle, 5)
		specs = e.Generate(cycle+5, nil, nil)
		delivered += len(specs)
		cycle += 5
		if cycle > 1000 {
			t.Fatal("iteration failed to converge")
		}
	}
	deliver(e, specs, cycle, 5)
	if e.Completed() != 1 {
		t.Fatalf("completed %d iterations, want 1", e.Completed())
	}
	if e.Done() {
		t.Fatal("Done after 1/2 iterations")
	}
	// The barrier: iteration 2 starts on the next Generate call.
	specs = e.Generate(cycle+5, nil, nil)
	if len(specs) != 4 {
		t.Fatalf("iteration 2 opened with %d sends, want 4", len(specs))
	}
	rep := e.Report()
	// Only iteration 1's deliveries are aggregated; iteration 2's first
	// sends are in flight.
	if rep.Messages.N != int64(e.msgsPer) {
		t.Fatalf("message agg holds %d samples, want %d", rep.Messages.N, e.msgsPer)
	}
	if rep.Iteration.N != 1 {
		t.Fatalf("iteration agg holds %d samples, want 1", rep.Iteration.N)
	}
	if rep.Participant.N != 4 {
		t.Fatalf("participant agg holds %d samples, want 4 (one per rank)", rep.Participant.N)
	}
}

func TestAgg(t *testing.T) {
	var a Agg
	if a.Mean() != 0 {
		t.Fatal("empty agg mean != 0")
	}
	for _, v := range []int64{5, 1, 9} {
		a.add(v)
	}
	if a.N != 3 || a.Min != 1 || a.Max != 9 || a.Sum != 15 {
		t.Fatalf("agg = %+v, want N=3 min=1 max=9 sum=15", a)
	}
	if a.Mean() != 5 {
		t.Fatalf("mean = %v, want 5", a.Mean())
	}
}

// scanSpecs is the reference rule Generate's ready set replaces: visit
// every rank in order and issue its next send if the guard holds,
// reading the state a barrier-clearing call would start from. It does
// not mutate the engine.
func scanSpecs(e *Engine) []noc.Spec {
	if !e.active && e.completed >= e.p.Iterations {
		return nil
	}
	var specs []noc.Spec
	for r := range e.ranks {
		i, got := e.nextSend[r], e.recvd[r]
		if !e.active {
			i, got = 0, 0
		}
		if i < len(e.prog[r]) && int32(got) >= e.prog[r][i].guard {
			specs = append(specs, noc.Spec{Src: e.ranks[r], Dst: e.prog[r][i].dst, Size: e.p.MessageFlits, Class: noc.Data})
		}
	}
	return specs
}

// TestEngineReadySetMatchesScan drives each schedule over 100 ranks (two
// ready-set words) from a delivery stream with uneven flight times, so
// receives reorder across ranks, and holds every cycle's specs to the
// scan rule.
func TestEngineReadySetMatchesScan(t *testing.T) {
	for _, alg := range Algorithms() {
		e, err := New(mesh(10, 10), Params{Algorithm: alg, MessageFlits: 4, Iterations: 2})
		if err != nil {
			t.Fatal(err)
		}
		pending := map[int64][]noc.Spec{} // delivery cycle -> specs
		issued := 0
		for cycle := int64(0); !e.Done(); cycle++ {
			if cycle > 100000 {
				t.Fatalf("%s: %d iterations done by cycle %d", alg, e.Completed(), cycle)
			}
			for _, s := range pending[cycle] {
				e.OnDeliver(&noc.Packet{Src: s.Src, Dst: s.Dst, CreatedAt: cycle - 1, EjectedAt: cycle})
			}
			delete(pending, cycle)
			want := scanSpecs(e)
			got := e.Generate(cycle, nil, nil)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s cycle %d: specs %+v, scan rule %+v", alg, cycle, got, want)
			}
			for k := range got {
				issued++
				flight := 1 + int64((issued*7919)%13)
				pending[cycle+flight] = append(pending[cycle+flight], got[k])
			}
		}
		if want := 2 * e.msgsPer; issued != want {
			t.Fatalf("%s: %d sends issued, want %d", alg, issued, want)
		}
	}
}

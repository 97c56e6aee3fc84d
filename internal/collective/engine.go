package collective

import (
	"fmt"
	"math/bits"
	"math/rand"

	"mira/internal/noc"
	"mira/internal/stats"
	"mira/internal/topology"
)

// Algorithm names a collective schedule.
type Algorithm string

// The implemented schedules.
const (
	RingAllReduce Algorithm = "ring-allreduce"
	ReduceScatter Algorithm = "reduce-scatter"
	TreeBroadcast Algorithm = "tree-broadcast"
)

// Algorithms lists the implemented schedules in a stable order.
func Algorithms() []Algorithm {
	return []Algorithm{RingAllReduce, ReduceScatter, TreeBroadcast}
}

// ParseAlgorithm resolves an algorithm name.
func ParseAlgorithm(s string) (Algorithm, error) {
	for _, a := range Algorithms() {
		if string(a) == s {
			return a, nil
		}
	}
	return "", fmt.Errorf("collective: unknown algorithm %q (want %s, %s or %s)",
		s, RingAllReduce, ReduceScatter, TreeBroadcast)
}

// Params configures an Engine.
type Params struct {
	Algorithm Algorithm
	// Participants is the rank count; 0 enrolls every node. Ranks are
	// the first Participants nodes of the snake traversal (see the
	// package comment), so 2 <= Participants <= NumNodes.
	Participants int
	// MessageFlits is the size of every collective message in flits.
	MessageFlits int
	// Iterations is how many back-to-back collectives to run (0 = 1).
	// Iteration i+1 starts only after iteration i fully completes.
	Iterations int
}

// send is one entry of a rank's send program: issue a MessageFlits
// packet to dst once the rank has observed at least guard deliveries.
type send struct {
	dst   topology.NodeID
	guard int32
}

// Agg accumulates min/sum/max over int64 samples; the zero value is an
// empty aggregate.
type Agg struct {
	N, Min, Max, Sum int64
}

func (a *Agg) add(v int64) {
	if a.N == 0 || v < a.Min {
		a.Min = v
	}
	if v > a.Max {
		a.Max = v
	}
	a.N++
	a.Sum += v
}

// Mean returns the sample mean, 0 when empty.
func (a Agg) Mean() float64 {
	if a.N == 0 {
		return 0
	}
	return float64(a.Sum) / float64(a.N)
}

// Engine drives one collective workload as closed-loop traffic. It
// implements noc.Generator for the send side; the delivery side must be
// wired to noc.Sim.OnEject (the scenario layer does this) so receives
// unlock dependent sends. The Engine draws nothing from the RNG, issues
// at most one message per rank per cycle in program order, and keeps
// all its mutable state on the simulation goroutine — which is what
// keeps its tables bit-identical at any shard count and step mode.
type Engine struct {
	p     Params
	ranks []topology.NodeID // rank -> node
	// rankOf maps node -> rank, -1 for non-participants.
	rankOf    []int
	prog      [][]send // rank -> ordered send program
	recvSteps [][]int  // rank -> step index of the rank's j-th receive
	steps     int
	msgsPer   int // messages per iteration

	// Per-iteration state. active is false between OnDeliver observing
	// an iteration's last message and Generate starting the next one —
	// the zero-cost barrier.
	nextSend []int
	recvd    []int
	// ready has bit r set while rank r's next send is issuable (its
	// guard holds), so Generate visits only those ranks; it is re-checked
	// wherever nextSend or recvd moves (check).
	ready     []uint64
	delivered int
	iterStart int64
	active    bool
	completed int

	// Aggregates, in cycles: per-step message latency, per-participant
	// completion (last receive - iteration start), per-iteration
	// end-to-end (all delivered - iteration start).
	stepLat     []Agg
	messages    Agg
	participant Agg
	iteration   Agg
}

// New builds the overlay and send programs for the topology.
func New(topo *topology.Topology, p Params) (*Engine, error) {
	if _, err := ParseAlgorithm(string(p.Algorithm)); err != nil {
		return nil, err
	}
	n := p.Participants
	if n == 0 {
		n = topo.NumNodes()
	}
	if n < 2 || n > topo.NumNodes() {
		return nil, fmt.Errorf("collective: %d participants, need 2..%d", n, topo.NumNodes())
	}
	if p.MessageFlits < 1 {
		return nil, fmt.Errorf("collective: message size %d flits, need >= 1", p.MessageFlits)
	}
	if p.Iterations < 0 {
		return nil, fmt.Errorf("collective: %d iterations, need >= 0 (0 = 1)", p.Iterations)
	}
	if p.Iterations == 0 {
		p.Iterations = 1
	}
	p.Participants = n

	e := &Engine{
		p:         p,
		ranks:     snakeOrder(topo)[:n],
		rankOf:    make([]int, topo.NumNodes()),
		prog:      make([][]send, n),
		recvSteps: make([][]int, n),
		nextSend:  make([]int, n),
		recvd:     make([]int, n),
		ready:     make([]uint64, (n+63)/64),
	}
	for i := range e.rankOf {
		e.rankOf[i] = -1
	}
	for r, id := range e.ranks {
		e.rankOf[id] = r
	}

	switch p.Algorithm {
	case RingAllReduce:
		e.buildRing(2 * (n - 1))
	case ReduceScatter:
		e.buildRing(n - 1)
	case TreeBroadcast:
		e.buildTree()
	}
	e.stepLat = make([]Agg, e.steps)
	return e, nil
}

// snakeOrder returns every node in boustrophedon order: per Z layer,
// row 0 left-to-right, row 1 right-to-left, ... so consecutive entries
// are mesh neighbours (rows are joined at alternating ends).
func snakeOrder(topo *topology.Topology) []topology.NodeID {
	order := make([]topology.NodeID, 0, topo.NumNodes())
	for z := 0; z < topo.ZDim; z++ {
		for y := 0; y < topo.YDim; y++ {
			for i := 0; i < topo.XDim; i++ {
				x := i
				if y%2 == 1 {
					x = topo.XDim - 1 - i
				}
				node, ok := topo.NodeAt(topology.Coord{X: x, Y: y, Z: z})
				if !ok {
					panic("collective: snake order off the topology grid")
				}
				order = append(order, node.ID)
			}
		}
	}
	return order
}

// buildRing lays out the ring schedules: every rank sends to its ring
// successor at each of the given steps, and send s is guarded by the
// rank's s-th receive (from its ring predecessor).
func (e *Engine) buildRing(steps int) {
	n := len(e.ranks)
	e.steps = steps
	e.msgsPer = n * steps
	for r := 0; r < n; r++ {
		next := e.ranks[(r+1)%n]
		e.prog[r] = make([]send, steps)
		e.recvSteps[r] = make([]int, steps)
		for s := 0; s < steps; s++ {
			e.prog[r][s] = send{dst: next, guard: int32(s)}
			e.recvSteps[r][s] = s
		}
	}
}

// buildTree lays out the binomial broadcast: at step k, rank r < 2^k
// (holding the value) sends to rank r+2^k. The root's sends have guard
// 0; every other rank's sends are guarded by its single receive.
func (e *Engine) buildTree() {
	n := len(e.ranks)
	e.msgsPer = n - 1
	for k := 0; 1<<k < n; k++ {
		e.steps = k + 1
		for r := 0; r < 1<<k && r+(1<<k) < n; r++ {
			guard := int32(1)
			if r == 0 {
				guard = 0
			}
			peer := r + (1 << k)
			e.prog[r] = append(e.prog[r], send{dst: e.ranks[peer], guard: guard})
			e.recvSteps[peer] = []int{k}
		}
	}
}

// Generate implements noc.Generator: it issues every send whose guard
// is satisfied, at most one per rank per cycle in program order, and
// opens the next iteration when the barrier clears. Ranks are visited
// in ascending order through the ready set — the order, and so the
// specs, of a scan over every rank.
func (e *Engine) Generate(cycle int64, _ *rand.Rand, specs []noc.Spec) []noc.Spec {
	if !e.active {
		if e.completed >= e.p.Iterations {
			return specs
		}
		for r := range e.nextSend {
			e.nextSend[r] = 0
			e.recvd[r] = 0
			e.check(r)
		}
		e.delivered = 0
		e.iterStart = cycle
		e.active = true
	}
	for wi, w := range e.ready {
		// w is a snapshot: a rank re-readied by its own issue waits for
		// the next cycle.
		for ; w != 0; w &= w - 1 {
			r := wi<<6 + bits.TrailingZeros64(w)
			i := e.nextSend[r]
			specs = append(specs, noc.Spec{
				Src:   e.ranks[r],
				Dst:   e.prog[r][i].dst,
				Size:  e.p.MessageFlits,
				Class: noc.Data,
			})
			e.nextSend[r] = i + 1
			e.check(r)
		}
	}
	return specs
}

// check sets rank r's ready bit iff its next send's guard holds.
func (e *Engine) check(r int) {
	i, bit := e.nextSend[r], uint64(1)<<(uint(r)&63)
	if i < len(e.prog[r]) && int32(e.recvd[r]) >= e.prog[r][i].guard {
		e.ready[r>>6] |= bit
	} else {
		e.ready[r>>6] &^= bit
	}
}

// OnDeliver observes one packet delivery (wire to noc.Sim.OnEject). The
// j-th arrival at a rank is the j-th entry of the rank's receive
// schedule; counting arrivals rather than matching packet identities is
// exact for the shipped overlays (see the package comment).
func (e *Engine) OnDeliver(pkt *noc.Packet) {
	if !e.active || int(pkt.Dst) >= len(e.rankOf) {
		return
	}
	r := e.rankOf[pkt.Dst]
	if r < 0 || e.recvd[r] >= len(e.recvSteps[r]) {
		return
	}
	j := e.recvd[r]
	e.recvd[r]++
	e.check(r)
	lat := pkt.EjectedAt - pkt.CreatedAt
	e.stepLat[e.recvSteps[r][j]].add(lat)
	e.messages.add(lat)
	if e.recvd[r] == len(e.recvSteps[r]) {
		e.participant.add(pkt.EjectedAt - e.iterStart)
	}
	e.delivered++
	if e.delivered == e.msgsPer {
		e.iteration.add(pkt.EjectedAt - e.iterStart)
		e.completed++
		e.active = false
	}
}

// Completed returns how many iterations fully delivered.
func (e *Engine) Completed() int { return e.completed }

// Done reports whether every requested iteration completed.
func (e *Engine) Done() bool { return e.completed >= e.p.Iterations }

// Report is the numeric summary of a finished (or partial) run.
type Report struct {
	Algorithm    Algorithm `json:"algorithm"`
	Ranks        int       `json:"ranks"`
	Steps        int       `json:"steps"`
	MessageFlits int       `json:"message_flits"`
	Iterations   int       `json:"iterations"`
	Completed    int       `json:"completed"`
	// Messages aggregates per-message latency over every delivery;
	// StepLat slices the same deliveries by schedule step. Participant
	// is per-rank completion (last receive - iteration start; the
	// broadcast root never receives and is excluded). Iteration is the
	// end-to-end time of each completed collective. All in cycles.
	Messages    Agg   `json:"messages"`
	StepLat     []Agg `json:"step_lat"`
	Participant Agg   `json:"participant"`
	Iteration   Agg   `json:"iteration"`
}

// Report returns the run summary accumulated so far.
func (e *Engine) Report() Report {
	return Report{
		Algorithm:    e.p.Algorithm,
		Ranks:        len(e.ranks),
		Steps:        e.steps,
		MessageFlits: e.p.MessageFlits,
		Iterations:   e.p.Iterations,
		Completed:    e.completed,
		Messages:     e.messages,
		StepLat:      e.stepLat,
		Participant:  e.participant,
		Iteration:    e.iteration,
	}
}

func aggRow(t *stats.Table, name string, a Agg) {
	t.AddRow(name, fmt.Sprintf("%d", a.N), fmt.Sprintf("%d", a.Min),
		fmt.Sprintf("%.1f", a.Mean()), fmt.Sprintf("%d", a.Max))
}

// Summary renders the completion-latency table: per-message latency
// over all deliveries, per-participant completion, and end-to-end
// iteration latency (min/mean/max in cycles).
func (e *Engine) Summary() *stats.Table {
	t := &stats.Table{
		Title:  fmt.Sprintf("collective %s: %d ranks, %d steps, %d-flit messages", e.p.Algorithm, len(e.ranks), e.steps, e.p.MessageFlits),
		Header: []string{"metric", "n", "min", "mean", "max"},
	}
	aggRow(t, "message latency", e.messages)
	aggRow(t, "participant completion", e.participant)
	aggRow(t, "iteration end-to-end", e.iteration)
	t.Notes = append(t.Notes, fmt.Sprintf("%d/%d iterations complete, %d messages per iteration",
		e.completed, e.p.Iterations, e.msgsPer))
	if !e.Done() {
		t.Notes = append(t.Notes, "incomplete: run canceled or measure window too short for the schedule")
	}
	return t
}

// StepTable renders per-step message latency: one row per schedule
// step, aggregated over all iterations and participants.
func (e *Engine) StepTable() *stats.Table {
	t := &stats.Table{
		Title:  fmt.Sprintf("collective %s: per-step message latency", e.p.Algorithm),
		Header: []string{"step", "n", "min", "mean", "max"},
	}
	for s, a := range e.stepLat {
		aggRow(t, fmt.Sprintf("%d", s), a)
	}
	return t
}

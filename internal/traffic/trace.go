package traffic

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strconv"
	"strings"

	"mira/internal/noc"
	"mira/internal/topology"
)

// Event is one packet injection in a recorded trace. Traces are how the
// CMP substrate (internal/cmp) feeds application workloads into the NoC,
// standing in for the paper's Simics-generated MP traces.
type Event struct {
	Cycle int64
	Src   topology.NodeID
	Dst   topology.NodeID
	Size  int
	Class noc.Class
	// Layers holds per-flit active layer counts; nil means full width.
	Layers []uint8
}

// Trace is a time-ordered sequence of packet injections.
type Trace struct {
	Name   string
	Events []Event
}

// Sort orders events by cycle (stable, preserving generation order for
// equal cycles).
func (t *Trace) Sort() {
	slices.SortStableFunc(t.Events, func(a, b Event) int { return cmp.Compare(a.Cycle, b.Cycle) })
}

// Span returns the cycle range covered (last event cycle + 1), or 0.
func (t *Trace) Span() int64 {
	if len(t.Events) == 0 {
		return 0
	}
	return t.Events[len(t.Events)-1].Cycle + 1
}

// Flits returns the total flit count.
func (t *Trace) Flits() int64 {
	var n int64
	for _, e := range t.Events {
		n += int64(e.Size)
	}
	return n
}

// InjectionRate returns the average offered load in flits/node/cycle for
// a network with the given node count.
func (t *Trace) InjectionRate(nodes int) float64 {
	span := t.Span()
	if span == 0 || nodes == 0 {
		return 0
	}
	return float64(t.Flits()) / float64(span) / float64(nodes)
}

// ShortFlitPercent returns the percentage of flits whose active layer
// count is 1 (Figure 13 (a)).
func (t *Trace) ShortFlitPercent() float64 {
	var short, total int64
	for _, e := range t.Events {
		for i := 0; i < e.Size; i++ {
			total++
			if e.Layers != nil && e.Layers[i] == 1 {
				short++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return 100 * float64(short) / float64(total)
}

// ClassShares returns the fraction of packets per message class
// (Figure 2's data vs. address/coherence split).
func (t *Trace) ClassShares() map[noc.Class]float64 {
	counts := make(map[noc.Class]int64)
	for _, e := range t.Events {
		counts[e.Class]++
	}
	out := make(map[noc.Class]float64, len(counts))
	total := float64(len(t.Events))
	for c, n := range counts {
		out[c] = float64(n) / total
	}
	return out
}

// Replayer feeds a trace into the simulator, looping so that an
// application trace shorter than the simulation window keeps the
// network loaded.
type Replayer struct {
	Trace *Trace

	idx    int
	offset int64
}

var _ noc.Generator = (*Replayer)(nil)

// OpenLoop implements noc.OpenLoop: a trace is replayed at its recorded
// cycles whatever the network does.
func (*Replayer) OpenLoop() {}

// Generate implements noc.Generator. Cycles must be queried in
// non-decreasing order; the rng is unused because traces are
// deterministic.
func (r *Replayer) Generate(cycle int64, _ *rand.Rand, specs []noc.Spec) []noc.Spec {
	evs := r.Trace.Events
	if len(evs) == 0 {
		return specs
	}
	span := r.Trace.Span()
	for {
		if r.idx >= len(evs) {
			r.idx = 0
			r.offset += span
		}
		e := evs[r.idx]
		at := e.Cycle + r.offset
		if at > cycle {
			return specs
		}
		specs = append(specs, noc.Spec{
			Src: e.Src, Dst: e.Dst, Size: e.Size, Class: e.Class,
			LayersPerFlit: e.Layers,
		})
		r.idx++
	}
}

// WriteTo serializes the trace in a line-oriented text format:
//
//	# name <name>
//	<cycle> <src> <dst> <size> <class> <layers|- >
//
// Layers are comma-separated per-flit counts, or "-" for full width.
func (t *Trace) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	c, err := fmt.Fprintf(bw, "# name %s\n", t.Name)
	n += int64(c)
	if err != nil {
		return n, err
	}
	for _, e := range t.Events {
		layers := "-"
		if e.Layers != nil {
			parts := make([]string, len(e.Layers))
			for i, l := range e.Layers {
				parts[i] = strconv.Itoa(int(l))
			}
			layers = strings.Join(parts, ",")
		}
		c, err := fmt.Fprintf(bw, "%d %d %d %d %d %s\n", e.Cycle, e.Src, e.Dst, e.Size, e.Class, layers)
		n += int64(c)
		if err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// ReadTrace parses the format written by WriteTo.
func ReadTrace(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	t := &Trace{}
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			if rest, ok := strings.CutPrefix(text, "# name "); ok {
				t.Name = strings.TrimSpace(rest)
			}
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 6 {
			return nil, fmt.Errorf("traffic: trace line %d: want 6 fields, got %d", line, len(fields))
		}
		var e Event
		vals := make([]int64, 5)
		for i := 0; i < 5; i++ {
			v, err := strconv.ParseInt(fields[i], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("traffic: trace line %d field %d: %v", line, i+1, err)
			}
			vals[i] = v
		}
		e.Cycle = vals[0]
		e.Src = topology.NodeID(vals[1])
		e.Dst = topology.NodeID(vals[2])
		e.Size = int(vals[3])
		e.Class = noc.Class(vals[4])
		if fields[5] != "-" {
			parts := strings.Split(fields[5], ",")
			if len(parts) != e.Size {
				return nil, fmt.Errorf("traffic: trace line %d: %d layer entries for %d flits", line, len(parts), e.Size)
			}
			e.Layers = make([]uint8, len(parts))
			for i, p := range parts {
				v, err := strconv.ParseUint(p, 10, 8)
				if err != nil {
					return nil, fmt.Errorf("traffic: trace line %d layers: %v", line, err)
				}
				e.Layers[i] = uint8(v)
			}
		}
		t.Events = append(t.Events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return t, nil
}

package obs

import (
	"fmt"
	"slices"
	"sync"

	"mira/internal/noc"
	"mira/internal/stats"
	"mira/internal/topology"
)

// Gauge reads one scalar from live simulation state. Gauges must be
// cheap and side-effect free; the sampler calls every registered gauge
// once per sample window.
type Gauge func() float64

// metricKind distinguishes how the sampler turns a raw reading into a
// time-series point.
type metricKind uint8

const (
	// kindGauge records the reading itself (a level, e.g. buffer
	// occupancy at the window boundary).
	kindGauge metricKind = iota
	// kindCounter records the delta since the previous sample (a rate,
	// e.g. flits sent during the window) from a monotonic reading.
	kindCounter
	// kindRatio records delta(num)/delta(den) over the window, or 0
	// when the denominator did not move (e.g. mean active layers per
	// crossbar traversal).
	kindRatio
)

type metric struct {
	name string
	kind metricKind
	num  Gauge
	den  Gauge // kindRatio only
}

// Registry is an ordered collection of named metrics. Registration
// order is sample order and column order, so a registry populated the
// same way always produces byte-identical tables.
type Registry struct {
	metrics []metric
	byName  map[string]int
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{byName: map[string]int{}} }

func (g *Registry) add(m metric) {
	if _, dup := g.byName[m.name]; dup {
		panic(fmt.Sprintf("obs: duplicate metric %q", m.name))
	}
	g.byName[m.name] = len(g.metrics)
	g.metrics = append(g.metrics, m)
}

// Gauge registers a level metric sampled as-is at each window boundary.
func (g *Registry) Gauge(name string, fn Gauge) { g.add(metric{name: name, kind: kindGauge, num: fn}) }

// Counter registers a monotonic reading recorded as its per-window delta.
func (g *Registry) Counter(name string, fn Gauge) {
	g.add(metric{name: name, kind: kindCounter, num: fn})
}

// Ratio registers delta(num)/delta(den) per window (0 when den is
// flat), for averages weighted over the window's events.
func (g *Registry) Ratio(name string, num, den Gauge) {
	g.add(metric{name: name, kind: kindRatio, num: num, den: den})
}

// Names returns the metric names in registration (column) order.
func (g *Registry) Names() []string {
	out := make([]string, len(g.metrics))
	for i, m := range g.metrics {
		out[i] = m.name
	}
	return out
}

// Len returns the number of registered metrics.
func (g *Registry) Len() int { return len(g.metrics) }

// RegisterNetwork populates the registry with the standard gauge set of
// one network:
//
//   - net.occ / net.backlog — flits buffered in routers / total backlog
//   - net.credit_stalls, net.link_flits, net.express_flits,
//     net.vertical_flits — per-window activity deltas
//   - net.active_layers — mean datapath layers kept awake per crossbar
//     traversal during the window (the §3.2.1 shutdown signal)
//   - r<i>.occ and r<i>.credit_stalls — per-router occupancy level and
//     backpressure delta
//   - r<i>.vc<p>.<v>.occ — per-VC occupancy levels for the routers in
//     perVC (all flat (port, vc) indices), for pinpointing which VCs of
//     a hot router saturate first
func RegisterNetwork(g *Registry, net *noc.Network, perVC []int) {
	layers := float64(net.Config().Layers)
	g.Gauge("net.occ", func() float64 { return float64(net.Occupancy()) })
	g.Gauge("net.backlog", func() float64 { return float64(net.BacklogFlits()) })
	g.Counter("net.credit_stalls", func() float64 { return float64(net.TotalCounters().CreditStalls) })
	g.Counter("net.link_flits", func() float64 { return float64(net.TotalCounters().LinkFlits) })
	g.Counter("net.express_flits", func() float64 { return float64(net.TotalCounters().ExpFlits) })
	g.Counter("net.vertical_flits", func() float64 { return float64(net.TotalCounters().VertFlits) })
	g.Ratio("net.active_layers",
		func() float64 { return layers * net.TotalCounters().WXbarFlits },
		func() float64 { return float64(net.TotalCounters().XbarFlits) })

	for i := 0; i < net.Config().Topo.NumNodes(); i++ {
		r := net.Router(topology.NodeID(i))
		g.Gauge(fmt.Sprintf("r%d.occ", i), func() float64 { return float64(r.Occupancy()) })
		g.Counter(fmt.Sprintf("r%d.credit_stalls", i),
			func() float64 { return float64(r.Counters().CreditStalls) })
	}
	vcs := net.Config().VCs
	for _, id := range perVC {
		r := net.Router(topology.NodeID(id))
		for f := 0; f < r.NumInVCs(); f++ {
			pi, vi := f/vcs, f%vcs
			g.Gauge(fmt.Sprintf("r%d.p%d.vc%d.occ", id, pi, vi), func() float64 {
				return float64(r.VCOccupancy(pi, vi))
			})
		}
	}
}

// Sampler snapshots a registry on fixed cycle windows, building one
// time-series row per window. It is driven from noc.Sim's OnCycle hook;
// off-boundary cycles cost one modulo check. The stored series is
// guarded by a mutex so a serving goroutine (internal/serve) can read
// Latest/Table while the simulation keeps sampling; the gauges
// themselves are only ever called from the simulation goroutine.
type Sampler struct {
	window  int64
	reg     *Registry
	prevRaw []float64 // previous raw reading per metric (counter/ratio denominator)
	prevNum []float64 // previous numerator reading (ratio metrics only)

	mu      sync.Mutex
	cycles  []int64
	rows    [][]float64
	partial []bool // row i covers less than a full window
}

// DefaultWindow is the sample window (cycles) used when a scenario does
// not specify one.
const DefaultWindow = 1000

// NewSampler builds a sampler over reg with the given window (0 means
// DefaultWindow). The baseline for counter deltas is the first call to
// OnCycle, so attach the sampler before the simulation starts.
func NewSampler(reg *Registry, window int64) *Sampler {
	if window <= 0 {
		window = DefaultWindow
	}
	return &Sampler{window: window, reg: reg, prevRaw: make([]float64, reg.Len()), prevNum: make([]float64, reg.Len())}
}

// Window returns the sample window in cycles.
func (s *Sampler) Window() int64 { return s.window }

// OnCycle samples the registry when cycle is a window boundary.
func (s *Sampler) OnCycle(cycle int64) {
	if cycle%s.window == 0 {
		s.sample(cycle, false)
	}
}

// Final emits the trailing partial window at simulation end: if the run
// stopped off a window boundary, the cycles since the last sample are
// recorded as one more row flagged partial. Runs shorter than a window
// therefore still produce a (single-row) series. Sampling on an
// already-recorded boundary is a no-op, so Final is safe to call
// unconditionally (and repeatedly) after the run.
func (s *Sampler) Final(cycle int64) {
	s.mu.Lock()
	done := len(s.cycles) > 0 && s.cycles[len(s.cycles)-1] >= cycle
	s.mu.Unlock()
	if done || cycle <= 0 {
		return
	}
	s.sample(cycle, true)
}

func (s *Sampler) sample(cycle int64, partial bool) {
	row := make([]float64, s.reg.Len())
	for i, m := range s.reg.metrics {
		raw := m.num()
		switch m.kind {
		case kindGauge:
			row[i] = raw
		case kindCounter:
			row[i] = raw - s.prevRaw[i]
			s.prevRaw[i] = raw
		case kindRatio:
			den := m.den()
			if d := den - s.prevRaw[i]; d != 0 {
				row[i] = (raw - s.prevNum[i]) / d
			}
			s.prevRaw[i] = den
			s.prevNum[i] = raw
		}
	}
	s.mu.Lock()
	s.cycles = append(s.cycles, cycle)
	s.rows = append(s.rows, row)
	s.partial = append(s.partial, partial)
	s.mu.Unlock()
}

// Samples returns the number of completed sample rows.
func (s *Sampler) Samples() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.rows)
}

// Latest returns the most recent sample (boundary cycle plus one value
// per metric, in registration order), or ok=false before the first
// window completes. The row is a copy; safe to call from a goroutine
// other than the simulation's (the Prometheus exposition path).
func (s *Sampler) Latest() (cycle int64, row []float64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.rows) == 0 {
		return 0, nil, false
	}
	return s.cycles[len(s.cycles)-1], slices.Clone(s.rows[len(s.rows)-1]), true
}

// Table exports every sampled window as a stats.Table: a "cycle" column,
// one column per metric in registration order, and a trailing "partial"
// flag column (1 on the final short window emitted by Final, else 0).
func (s *Sampler) Table() stats.Table {
	t := stats.Table{
		Title:  "observability time series",
		Header: append(append([]string{"cycle"}, s.reg.Names()...), "partial"),
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for j, row := range s.rows {
		cells := make([]string, 0, len(row)+2)
		cells = append(cells, fmt.Sprintf("%d", s.cycles[j]))
		for _, v := range row {
			cells = append(cells, fmt.Sprintf("%.4g", v))
		}
		flag := "0"
		if s.partial[j] {
			flag = "1"
		}
		t.Rows = append(t.Rows, append(cells, flag))
	}
	return t
}

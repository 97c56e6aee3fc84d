package obs

import (
	"cmp"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"

	"mira/internal/stats"
)

// Chrome trace-event export: completed FlitSpans render as "X" (complete
// duration) events on per-router tracks, loadable by Perfetto
// (ui.perfetto.dev) and chrome://tracing. Each router is a process
// (pid = router id); within a router, overlapping flit visits are
// spread across lanes (tid) by a deterministic greedy assignment so
// slices never overlap on a track. One simulated cycle maps to one
// microsecond of trace time.
//
// The exporter is deterministic: spans arrive in eject order (itself
// deterministic per scenario), lane assignment is a pure function of
// the visit intervals, and encoding/json renders struct fields in
// declaration order — so byte-identical simulations produce
// byte-identical JSON across step modes and worker counts.

// TraceEvent is one Chrome trace-event object. Field order is the
// serialization order.
type TraceEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    int64          `json:"ts"`
	Dur   int64          `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Cat   string         `json:"cat,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// TraceDoc is the JSON object format of the trace-event spec.
type TraceDoc struct {
	TraceEvents []TraceEvent `json:"traceEvents"`
	DisplayUnit string       `json:"displayTimeUnit"`
}

// routerVisit is one flit's stay at one router, for lane assignment.
type routerVisit struct {
	span *FlitSpan
	hop  int
	// start is the lane-occupancy start: the queue slice begins at
	// Created for the injection hop, Arrive otherwise.
	start int64
	end   int64
}

// assignLanes spreads a router's visits over the fewest lanes such that
// no two visits on a lane overlap: visits are sorted by (start, end,
// pkt, seq) and each takes the lowest-numbered lane free at its start.
func assignLanes(visits []routerVisit) []int {
	order := make([]int, len(visits))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		va, vb := visits[order[a]], visits[order[b]]
		return cmp.Or(cmp.Compare(va.start, vb.start), cmp.Compare(va.end, vb.end),
			cmp.Compare(va.span.Pkt, vb.span.Pkt), cmp.Compare(va.span.Seq, vb.span.Seq)) < 0
	})
	lanes := make([]int, len(visits))
	var laneEnd []int64 // per-lane last occupied cycle (exclusive)
	for _, i := range order {
		v := visits[i]
		lane := -1
		for l, end := range laneEnd {
			if end <= v.start {
				lane = l
				break
			}
		}
		if lane == -1 {
			lane = len(laneEnd)
			laneEnd = append(laneEnd, 0)
		}
		laneEnd[lane] = v.end
		lanes[i] = lane
	}
	return lanes
}

// stageSlice is one stage sub-interval of a router visit.
type stageSlice struct {
	name       string
	start, end int64
}

// stageSlices lists the non-empty stage sub-slices of one visit; the
// queue slice appears only on the injection hop.
func stageSlices(v routerVisit) []stageSlice {
	h := v.span.Hops[v.hop]
	out := make([]stageSlice, 0, 5)
	add := func(name string, start, end int64) {
		if end > start {
			out = append(out, stageSlice{name, start, end})
		}
	}
	if v.hop == 0 {
		add(StageQueue.String(), v.span.Created, v.span.Inject)
	}
	add(StageRoute.String(), h.Arrive, h.Route)
	add(StageVA.String(), h.Route, h.Alloc)
	add(StageSA.String(), h.Alloc, h.Grant)
	add(StageXfer.String(), h.Grant, h.Depart)
	return out
}

// WriteTraceDoc encodes a caller-assembled trace-event document on w
// (e.g. PerfettoDoc output with EngineTrackEvents appended).
func WriteTraceDoc(w io.Writer, doc TraceDoc) error {
	return json.NewEncoder(w).Encode(doc)
}

// PerfettoDoc builds the trace-event document for a set of spans.
func PerfettoDoc(spans []FlitSpan) TraceDoc {
	// Group visits by router.
	perRouter := map[int][]routerVisit{}
	for i := range spans {
		s := &spans[i]
		for h := range s.Hops {
			v := routerVisit{span: s, hop: h, start: s.Hops[h].Arrive, end: s.Hops[h].Depart}
			if h == 0 && s.Created < v.start {
				v.start = s.Created
			}
			perRouter[s.Hops[h].Router] = append(perRouter[s.Hops[h].Router], v)
		}
	}
	routers := make([]int, 0, len(perRouter))
	for r := range perRouter {
		routers = append(routers, r)
	}
	sort.Ints(routers)

	doc := TraceDoc{DisplayUnit: "ns", TraceEvents: []TraceEvent{}}
	for _, r := range routers {
		doc.TraceEvents = append(doc.TraceEvents,
			TraceEvent{Name: "process_name", Phase: "M", PID: r,
				Args: map[string]any{"name": fmt.Sprintf("router %d", r)}},
			TraceEvent{Name: "process_sort_index", Phase: "M", PID: r,
				Args: map[string]any{"sort_index": r}},
		)
	}
	for _, r := range routers {
		visits := perRouter[r]
		lanes := assignLanes(visits)
		for i, v := range visits {
			h := v.span.Hops[v.hop]
			args := map[string]any{
				"pkt":   v.span.Pkt,
				"seq":   v.span.Seq,
				"type":  v.span.Type,
				"class": v.span.Class,
				"src":   v.span.Src,
				"dst":   v.span.Dst,
				"hop":   v.hop,
				"dir":   h.Dir,
				"vc":    h.VC,
			}
			if v.span.Layers != 0 {
				args["layers"] = v.span.Layers
			}
			for _, sl := range stageSlices(v) {
				doc.TraceEvents = append(doc.TraceEvents, TraceEvent{
					Name:  sl.name,
					Phase: "X",
					TS:    sl.start,
					Dur:   sl.end - sl.start,
					PID:   r,
					TID:   lanes[i],
					Cat:   v.span.Class,
					Args:  args,
				})
			}
		}
	}
	return doc
}

// enginePID is the trace-event process ID of the engine telemetry
// track — far above any router ID so the "engine (host)" process never
// collides with a router process.
const enginePID = 1 << 20

// EngineTrackEvents renders the engine.* columns of a sampled series,
// read as the CSV that mirasim -series writes (Sampler.Table), as
// Chrome trace-event counter ("C") tracks on a dedicated engine
// process, one sample per window: per-shard busy microseconds per
// simulated cycle, cycles per wall second, and (sharded) the max/mean
// shard busy imbalance. Because the timestamps are simulated cycles
// (= microseconds, the same axis PerfettoDoc uses for flit spans), the
// engine tracks line up under the router tracks of the same run —
// shard wall-time renders alongside the flit activity that caused it.
func EngineTrackEvents(series io.Reader) ([]TraceEvent, error) {
	recs, err := csv.NewReader(series).ReadAll()
	if err == nil && len(recs) == 0 {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return nil, err
	}
	col := func(name string) int { return slices.Index(recs[0], name) }
	wall, busy := col("engine.wall_ns"), []int{} // busy[k]: shard k's busy_ns
	for k := 0; col(fmt.Sprintf("engine.shard%d.busy_ns", k)) >= 0; k++ {
		busy = append(busy, col(fmt.Sprintf("engine.shard%d.busy_ns", k)))
	}
	if wall < 0 || len(busy) == 0 || col("cycle") != 0 {
		return nil, errors.New("no engine.* columns in the series (observe.engine was off)")
	}
	out := []TraceEvent{
		{Name: "process_name", Phase: "M", PID: enginePID,
			Args: map[string]any{"name": "engine (host wall-time)"}},
		{Name: "process_sort_index", Phase: "M", PID: enginePID,
			Args: map[string]any{"sort_index": enginePID}},
	}
	var prev float64 // the previous row's cycle
	for _, row := range recs[1:] {
		v := make([]float64, len(row))
		for i, cell := range row {
			if v[i], err = strconv.ParseFloat(cell, 64); err != nil {
				return nil, fmt.Errorf("series row at cycle %s: %w", row[0], err)
			}
		}
		cycles, ts := v[0]-prev, int64(v[0])
		if prev = v[0]; cycles <= 0 {
			continue
		}
		shards := map[string]any{}
		var sum, hot float64
		for k, i := range busy {
			// Busy wall time per simulated cycle, in microseconds: the
			// per-shard cost of stepping one cycle during this window.
			shards[fmt.Sprintf("shard%d", k)] = v[i] / 1e3 / cycles
			sum, hot = sum+v[i], max(hot, v[i])
		}
		out = append(out, TraceEvent{Name: "shard busy us/cycle", Phase: "C", TS: ts, PID: enginePID, Args: shards})
		if v[wall] > 0 {
			out = append(out, TraceEvent{Name: "cycles/sec", Phase: "C", TS: ts, PID: enginePID,
				Args: map[string]any{"rate": cycles / (v[wall] / 1e9)}})
		}
		if len(busy) > 1 && sum > 0 {
			out = append(out, TraceEvent{Name: "shard imbalance", Phase: "C", TS: ts, PID: enginePID,
				Args: map[string]any{"ratio": hot * float64(len(busy)) / sum}})
		}
	}
	return out, nil
}

// Congestion is a per-router stall-cycle time series: Cells[r][w] is
// the number of flit-cycles spent stalled at router r (arrival to switch
// grant — the congestion component, excluding the fixed ST+LT
// traversal) during the w-th window of Window cycles. Its Table is the
// CSV behind "miratrace spans -heatmap"; Cells feed plot.Heatmap.
type Congestion struct {
	Window int64
	Cells  [][]int64
}

// CongestionHeatmap aggregates spans into a Congestion matrix with
// windows of the given cycle width (DefaultWindow when <= 0).
func CongestionHeatmap(spans []FlitSpan, window int64) Congestion {
	if window <= 0 {
		window = DefaultWindow
	}
	var maxCycle int64
	maxRouter := -1
	for i := range spans {
		for _, h := range spans[i].Hops {
			maxCycle, maxRouter = max(maxCycle, h.Depart), max(maxRouter, h.Router)
		}
	}
	nWin := int((maxCycle + window - 1) / window)
	if nWin == 0 || maxRouter < 0 {
		return Congestion{Window: window}
	}
	cells := make([][]int64, maxRouter+1)
	for i := range cells {
		cells[i] = make([]int64, nWin)
	}
	// Spread each stall interval [Arrive, Grant) over the windows it
	// overlaps.
	for i := range spans {
		for _, h := range spans[i].Hops {
			for c := h.Arrive; c < h.Grant; {
				win := c / window
				end := min((win+1)*window, h.Grant)
				cells[h.Router][win] += end - c
				c = end
			}
		}
	}
	return Congestion{Window: window, Cells: cells}
}

// Table renders the matrix with one row per router and one column per
// window, headed by the window's last cycle.
func (g Congestion) Table() stats.Table {
	t := stats.Table{
		Title:  "per-router congestion heatmap (stall cycles per window)",
		Header: []string{"router"},
	}
	if len(g.Cells) > 0 {
		for w := range g.Cells[0] {
			t.Header = append(t.Header, fmt.Sprintf("c%d", int64(w+1)*g.Window))
		}
	}
	for r, cells := range g.Cells {
		row := append(make([]string, 0, len(cells)+1), fmt.Sprintf("%d", r))
		for _, v := range cells {
			row = append(row, fmt.Sprintf("%d", v))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("cell = flit-cycles stalled (arrival to switch grant) at the router during the %d-cycle window ending at the column cycle", g.Window))
	return t
}

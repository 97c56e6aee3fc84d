// Package scenario is the declarative run-description layer: one
// JSON-serializable Scenario fully specifies a MIRA simulation — the
// architecture, the traffic, the measurement windows, the seed and every
// router-level knob — and Elaborate turns it into a ready
// (Design, Network, Sim) triple whose Run is the one run sequence. It is
// the single construction path the experiment drivers (internal/exp) and
// the commands (mirasim, mirabench, miratrace) build their simulations
// through, which is what makes runs reproducible from a stored
// description and lets a batch (DecodeBatch, then exp.RunBatch) arrive
// over the wire. The package is declarative: decode, validate, edit,
// elaborate and run one scenario; pools live in internal/exp.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"

	"mira/internal/core"
	"mira/internal/noc"
	"mira/internal/topology"
)

// Traffic describes the workload half of a scenario. Kind selects one
// of the fixed traffic builders (traffic.go); the remaining fields
// parameterize it and are ignored by kinds that do not use them.
type Traffic struct {
	// Kind names the traffic builder: "ur", "nuca", "transpose",
	// "complement", "tornado", "hotspot", "trace", "replay" or
	// "collective". Empty is allowed only for config-only elaboration
	// (NoCConfig), where traffic is supplied externally, e.g. by the
	// closed-loop CMP co-simulation.
	Kind string `json:"kind"`
	// Rate is the offered load in flits/node/cycle (synthetic kinds).
	Rate float64 `json:"rate,omitempty"`
	// ShortFrac marks this fraction of flits short (1 active layer) for
	// the layer-shutdown studies ("ur" and "nuca").
	ShortFrac float64 `json:"short_frac,omitempty"`
	// Workload names the CMP workload ("trace" kind).
	Workload string `json:"workload,omitempty"`
	// Protocol optionally overrides the coherence protocol for trace
	// generation: "mesi" (default) or "moesi".
	Protocol string `json:"protocol,omitempty"`
	// TraceCycles is the CMP generation window ("trace" kind).
	TraceCycles int64 `json:"trace_cycles,omitempty"`
	// TraceFile is a recorded trace to replay ("replay" kind).
	TraceFile string `json:"trace_file,omitempty"`
	// HotFrac is the probability a "hotspot" packet targets a hot node
	// (the four chip-centre nodes of the 6-wide floorplans).
	HotFrac float64 `json:"hot_frac,omitempty"`
	// Collective parameterizes the "collective" kind (required for it,
	// ignored otherwise).
	Collective *Collective `json:"collective,omitempty"`
}

// Collective configures the closed-loop collective workload
// (internal/collective): causally-dependent ring/tree overlays where
// each participant sends step k+1 only after its step-k message
// arrives.
type Collective struct {
	// Algorithm is "ring-allreduce", "reduce-scatter" or
	// "tree-broadcast".
	Algorithm string `json:"algorithm"`
	// Participants is the rank count; 0 enrolls every node. Ranks are
	// assigned in snake (boustrophedon) order over the mesh.
	Participants int `json:"participants,omitempty"`
	// MessageFlits sizes each collective message (0 = the 4-flit data
	// packet).
	MessageFlits int `json:"message_flits,omitempty"`
	// Iterations runs that many back-to-back collectives (0 = 1); each
	// starts only after the previous fully completes.
	Iterations int `json:"iterations,omitempty"`
}

// Observe configures the observability layer (internal/obs) for a run.
// Its presence on a scenario attaches a collector during elaboration:
// gauge time series sampled every Window cycles, per-flit latency
// percentiles, and — when the elaborating command requests it — a JSONL
// flit-event trace restricted by the node/class filter.
type Observe struct {
	// Window is the gauge sample window in cycles (0 = the obs
	// package default of 1000).
	Window int64 `json:"window,omitempty"`
	// PerVCNodes lists routers whose individual VC occupancies join the
	// sampled series (empty: per-router totals only).
	PerVCNodes []int `json:"per_vc_nodes,omitempty"`
	// TraceNodes restricts the flit-event trace to events at these
	// routers (empty: all routers).
	TraceNodes []int `json:"trace_nodes,omitempty"`
	// TraceClass restricts the trace to one message class: "control",
	// "data", or "" for both.
	TraceClass string `json:"trace_class,omitempty"`
	// Spans enables live per-flit span building (obs.SpanBuilder):
	// per-hop stage decomposition and the latency attribution tables
	// behind mirasim -attrib and mirabench obs-stages.
	Spans bool `json:"spans,omitempty"`
	// Engine enables engine self-telemetry (obs.EngineCollector):
	// per-shard wall-time, worker-pool utilization, cycles/sec with ETA
	// and Go runtime stats, sampled on a wall-clock ticker. Strictly
	// out-of-band — simulated results are bit-identical either way.
	Engine bool `json:"engine,omitempty"`
}

// Fault is a serializable failed link for the fault-tolerant routing
// study: the link leaving node Src in direction Dir is down.
type Fault struct {
	Src int    `json:"src"`
	Dir string `json:"dir"` // "east", "west", "north", "south", "up", "down"
}

// Scenario is the complete, serializable description of one simulation
// run. The zero value of every optional field means "architecture
// default", so a minimal scenario is just arch + traffic + windows +
// seed.
type Scenario struct {
	// Arch names the router architecture: 2DB, 3DB, 3DM, 3DM(NC),
	// 3DM-E or 3DM-E(NC).
	Arch string `json:"arch"`
	// Traffic selects and parameterizes the workload.
	Traffic Traffic `json:"traffic"`

	// Warmup/Measure/Drain are the simulation windows in cycles:
	// warm-up is simulated unmeasured, packets created during the
	// measure window are tracked, and drain bounds the completion phase.
	Warmup  int64 `json:"warmup"`
	Measure int64 `json:"measure"`
	Drain   int64 `json:"drain"`
	// Seed feeds every random stream of the run (injection, trace
	// generation); equal scenarios are bit-identical.
	Seed int64 `json:"seed"`
	// StepMode is "activity" (default, also "") or "checked", which
	// cross-checks every simulator invariant after every cycle — the
	// mode to debug a run with. Both simulate identically; they differ
	// only in host cost.
	StepMode string `json:"step_mode,omitempty"`
	// Shards partitions the mesh into contiguous router-ID ranges
	// stepped concurrently inside each cycle. 0 or 1 steps
	// sequentially; -1 picks a count from the mesh size and GOMAXPROCS
	// (noc.AutoShards); results are bit-identical at any value (the
	// knob trades host cores for wall clock, composing with
	// per-experiment -workers parallelism).
	Shards int `json:"shards,omitempty"`

	// VCs/BufDepth override the input-buffer geometry for design-space
	// ablations; 0 keeps the architecture's 2 VCs x 8 flits.
	VCs      int `json:"vcs,omitempty"`
	BufDepth int `json:"buf_depth,omitempty"`
	// STLTCycles forces the switch+link traversal depth (1 or 2);
	// 0 keeps the delay-model-validated value.
	STLTCycles int `json:"stlt_cycles,omitempty"`
	// ExpressInterval overrides the express-channel hop span of the
	// 3DM-E fabrics (0 keeps the paper's interval of 2).
	ExpressInterval int `json:"express_interval,omitempty"`

	// Chips, when present, replaces the architecture's on-chip fabric
	// with a multi-chip chiplet grid: ChipsX x ChipsY identical mesh
	// dies joined by die-to-die links (topology.NewChipGrid). The
	// architecture still sets the router pipeline and link pitch; the
	// grid sets the floorplan. Mutually exclusive with ExpressInterval.
	Chips *Chips `json:"chips,omitempty"`

	// Pipeline and allocator options (Figure 8 family).
	LookaheadRC bool `json:"lookahead_rc,omitempty"`
	SpecSA      bool `json:"spec_sa,omitempty"`
	QoSPriority bool `json:"qos_priority,omitempty"`

	// Routing overrides the routing algorithm: "" or "xy" for the
	// architecture default, "westfirst" for fault-tolerant west-first
	// routing (required when Faults is non-empty).
	Routing string  `json:"routing,omitempty"`
	Faults  []Fault `json:"faults,omitempty"`

	// Observe, when present, attaches the observability collector
	// (internal/obs) to the elaborated simulation.
	Observe *Observe `json:"observe,omitempty"`
}

// Chips serializes a chiplet-grid floorplan: a chips_x x chips_y array
// of nodes_x x nodes_y mesh dies. D2D timing fields default to 1-cycle
// full-width channels, making the grid behave like one large mesh.
type Chips struct {
	ChipsX int `json:"chips_x"`
	ChipsY int `json:"chips_y"`
	NodesX int `json:"nodes_x"`
	NodesY int `json:"nodes_y"`
	// D2DLatency is the die-to-die channel traversal latency in cycles
	// (0 = 1). D2DSerCycles is the serialization factor of a narrow d2d
	// channel — the cycles one flit occupies the link (0 or 1 = full
	// width).
	D2DLatency   int `json:"d2d_latency,omitempty"`
	D2DSerCycles int `json:"d2d_ser_cycles,omitempty"`
	// Express adds full-width inter-chip express channels between
	// matching boundary nodes of adjacent chips, at D2DLatency.
	Express bool `json:"express,omitempty"`
}

// spec converts the JSON block to a topology builder spec; pitch is the
// elaborated architecture's on-chip link length.
func (c *Chips) spec(pitchMM float64) topology.ChipGridSpec {
	return topology.ChipGridSpec{
		ChipsX: c.ChipsX, ChipsY: c.ChipsY,
		NodesX: c.NodesX, NodesY: c.NodesY,
		PitchMM:      pitchMM,
		D2DLatency:   c.D2DLatency,
		D2DSerCycles: c.D2DSerCycles,
		Express:      c.Express,
	}
}

// ArchByName resolves an architecture name.
func ArchByName(name string) (core.Arch, error) {
	for _, a := range core.Archs {
		if a.String() == name {
			return a, nil
		}
	}
	return 0, fmt.Errorf("scenario: unknown architecture %q", name)
}

// parseDir resolves a serialized link direction.
func parseDir(s string) (topology.Dir, error) {
	switch strings.ToLower(s) {
	case "east":
		return topology.East, nil
	case "west":
		return topology.West, nil
	case "north":
		return topology.North, nil
	case "south":
		return topology.South, nil
	case "up":
		return topology.Up, nil
	case "down":
		return topology.Down, nil
	}
	return 0, fmt.Errorf("scenario: unknown link direction %q", s)
}

// validateCore checks everything except the traffic description (used
// by both Validate and the config-only NoCConfig path).
func (s Scenario) validateCore() error {
	if _, err := ArchByName(s.Arch); err != nil {
		return err
	}
	if s.Warmup < 0 || s.Measure <= 0 || s.Drain < 0 {
		return fmt.Errorf("scenario: windows warmup=%d measure=%d drain=%d (need warmup,drain >= 0 and measure > 0)",
			s.Warmup, s.Measure, s.Drain)
	}
	if s.StepMode == "fullscan" {
		return fmt.Errorf(`scenario: step mode "fullscan" no longer exists (activity stepping is held to a test-only reference router instead); omit step_mode, or use "checked" to debug a run`)
	}
	if _, err := noc.ParseStepMode(s.StepMode); err != nil {
		return err
	}
	if s.Shards < noc.AutoShards {
		return fmt.Errorf("scenario: shards = %d, need >= -1 (-1 = auto)", s.Shards)
	}
	if s.VCs < 0 || s.BufDepth < 0 {
		return fmt.Errorf("scenario: negative buffer geometry vcs=%d buf_depth=%d", s.VCs, s.BufDepth)
	}
	if s.STLTCycles < 0 || s.STLTCycles > 2 {
		return fmt.Errorf("scenario: stlt_cycles = %d, want 0 (default), 1 or 2", s.STLTCycles)
	}
	if s.ExpressInterval != 0 {
		if s.ExpressInterval < 2 {
			return fmt.Errorf("scenario: express_interval = %d, need >= 2", s.ExpressInterval)
		}
		if s.Arch != core.Arch3DME.String() && s.Arch != core.Arch3DMENC.String() {
			return fmt.Errorf("scenario: express_interval applies only to the 3DM-E fabrics, not %s", s.Arch)
		}
	}
	if c := s.Chips; c != nil {
		if s.ExpressInterval != 0 {
			return fmt.Errorf("scenario: chips and express_interval both rebuild the fabric; set at most one")
		}
		// Pitch is irrelevant to spec validity; 1 is a placeholder.
		if err := c.spec(1).Validate(); err != nil {
			return fmt.Errorf("scenario: %w", err)
		}
	}
	switch s.Routing {
	case "", "xy", "westfirst":
	default:
		return fmt.Errorf("scenario: unknown routing %q (want \"\", \"xy\" or \"westfirst\")", s.Routing)
	}
	if len(s.Faults) > 0 && s.Routing != "westfirst" {
		return fmt.Errorf("scenario: link faults require westfirst routing")
	}
	for _, f := range s.Faults {
		if _, err := parseDir(f.Dir); err != nil {
			return err
		}
		if f.Src < 0 {
			return fmt.Errorf("scenario: fault source node %d is negative", f.Src)
		}
	}
	if o := s.Observe; o != nil {
		if o.Window < 0 {
			return fmt.Errorf("scenario: observe window %d is negative", o.Window)
		}
		switch o.TraceClass {
		case "", noc.Control.String(), noc.Data.String():
		default:
			return fmt.Errorf("scenario: observe trace_class %q (want \"\", %q or %q)",
				o.TraceClass, noc.Control, noc.Data)
		}
		for _, lists := range [][]int{o.PerVCNodes, o.TraceNodes} {
			for _, n := range lists {
				if n < 0 {
					return fmt.Errorf("scenario: observe node %d is negative", n)
				}
			}
		}
	}
	return nil
}

// Validate checks the scenario is fully specified and internally
// consistent: a known architecture, a known traffic kind whose
// parameters pass the kind's own checks, sane windows and overrides.
// Elaborate validates implicitly; exp.RunBatch rejects invalid
// scenarios per entry instead of failing the batch.
func (s Scenario) Validate() error {
	if err := s.validateCore(); err != nil {
		return err
	}
	b, ok := builders[s.Traffic.Kind]
	if !ok {
		kinds := make([]string, 0, len(builders))
		for k := range builders {
			kinds = append(kinds, k)
		}
		slices.Sort(kinds)
		return fmt.Errorf("scenario: unknown traffic kind %q (known: %s)",
			s.Traffic.Kind, strings.Join(kinds, ", "))
	}
	return b.Validate(s)
}

// MarshalIndent renders the scenario as formatted JSON.
func (s Scenario) MarshalIndent() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// Decode parses one JSON scenario. An unknown key or trailing data is
// an error, so a misspelled field fails instead of keeping its default.
func Decode(data []byte) (Scenario, error) {
	var s Scenario
	if err := decodeStrict(data, &s); err != nil {
		return Scenario{}, fmt.Errorf("scenario: %w", err)
	}
	return s, nil
}

// decodeStrict unmarshals exactly one JSON value into v, rejecting
// object keys v has no field for.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("trailing data after the JSON value")
	}
	return nil
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

// Set returns s with one field replaced. The key is a dotted JSON path
// ("traffic.rate", "chips.d2d_ser_cycles"); absent objects on the way
// are created. The value is JSON, or a bare string when it does not
// parse as JSON ("arch=3DM-E"). The edit goes through the strict
// decoder, so an unknown key or a value of the wrong type is an error.
func (s Scenario) Set(key, value string) (Scenario, error) {
	data, err := json.Marshal(s)
	if err != nil {
		return s, err
	}
	var root map[string]any
	if err := decodeNumbers(data, &root); err != nil {
		return s, err
	}
	var v any = value
	if json.Valid([]byte(value)) {
		if err := decodeNumbers([]byte(value), &v); err != nil {
			return s, err
		}
	}
	obj, path := root, strings.Split(key, ".")
	for i, k := range path {
		for have := range obj {
			if strings.EqualFold(have, k) {
				k = have // encoding/json reads keys case-insensitively
			}
		}
		if i == len(path)-1 {
			obj[k] = v
		} else if next, ok := obj[k].(map[string]any); ok {
			obj = next
		} else if obj[k] == nil {
			m := map[string]any{}
			obj[k], obj = m, m
		} else {
			return s, fmt.Errorf("scenario: set %s: %s is not an object", key, strings.Join(path[:i+1], "."))
		}
	}
	if data, err = json.Marshal(root); err != nil {
		return s, err
	}
	var out Scenario
	if err := decodeStrict(data, &out); err != nil {
		return s, fmt.Errorf("scenario: set %s=%s: %w", key, value, err)
	}
	return out, nil
}

// Edits is an ordered list of key=value edits (see Set). As a flag.Value
// it is the repeatable -set flag of the commands.
type Edits []string

func (e *Edits) String() string { return strings.Join(*e, " ") }

// Set appends one key=value edit, rejecting one that does not apply to
// the zero scenario. Whether an edit applies depends only on the types
// along its key, which every scenario shares, so Apply of edits built
// through Set fails on no scenario.
func (e *Edits) Set(kv string) error {
	if !strings.Contains(kv, "=") {
		return fmt.Errorf("%q is not key=value", kv)
	}
	next := append(slices.Clip(*e), kv)
	if _, err := next.Apply(Scenario{}); err != nil {
		return err
	}
	*e = next
	return nil
}

// Apply returns s with every edit applied in order.
func (e Edits) Apply(s Scenario) (Scenario, error) {
	for _, kv := range e {
		k, v, _ := strings.Cut(kv, "=")
		var err error
		if s, err = s.Set(k, v); err != nil {
			return s, err
		}
	}
	return s, nil
}

// decodeNumbers unmarshals data keeping numbers as json.Number literals.
func decodeNumbers(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	return dec.Decode(v)
}

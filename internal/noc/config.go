package noc

import (
	"fmt"
	"runtime"

	"mira/internal/routing"
	"mira/internal/topology"
)

// VCPolicy selects how the VC allocator chooses an output VC for a head
// flit.
type VCPolicy uint8

// VC allocation policies.
const (
	// AnyFree grants any unreserved output VC (used for the uniform
	// random synthetic traffic).
	AnyFree VCPolicy = iota
	// ByClass restricts each packet to the VC matching its message
	// class: VC0 for control/request traffic, VC1 for data/response
	// traffic (§3.2.4). This separates the request and response
	// networks and avoids protocol deadlock for NUCA traffic.
	ByClass
)

func (p VCPolicy) String() string {
	if p == ByClass {
		return "by-class"
	}
	return "any-free"
}

// StepMode selects how much Network.Step checks of itself. Both modes
// run the one activity-driven cycle (activity.go) and are bit-identical
// in simulated behaviour; they differ only in host cost.
type StepMode uint8

// Step modes.
const (
	// StepActivity (the default) visits only routers, ports and VCs
	// with pending work, tracked incrementally at every state
	// transition. Simulation cost scales with traffic, not network
	// size.
	StepActivity StepMode = iota
	// StepChecked runs the same path and cross-checks the full set
	// of flow-control and activity invariants after every cycle,
	// panicking on the first violation. Orders of magnitude slower;
	// for tests and CI only.
	StepChecked
)

func (m StepMode) String() string {
	if m == StepChecked {
		return "checked"
	}
	return "activity"
}

// ParseStepMode converts a -stepmode flag value.
func ParseStepMode(s string) (StepMode, error) {
	switch s {
	case "activity", "":
		return StepActivity, nil
	case "checked":
		return StepChecked, nil
	}
	return StepActivity, fmt.Errorf("noc: unknown step mode %q (want activity or checked)", s)
}

// Config fully describes a simulated network.
type Config struct {
	// Topo is the router graph; Alg routes over it.
	Topo *topology.Topology
	Alg  routing.Algorithm

	// VCs per physical port and buffer depth (flits) per VC. The MIRA
	// configuration uses 2 VCs with 8-flit buffers.
	VCs      int
	BufDepth int

	// STLTCycles is the number of cycles from a switch-allocation grant
	// until the flit is written into the next router's buffer: 2 for a
	// separate switch-traversal and link-traversal stage (2DB, 3DB,
	// the NC variants), 1 when ST and LT are combined (3DM, 3DM-E —
	// Figure 8 (d), enabled by the shorter crossbar and links).
	STLTCycles int

	// Layers is the number of datapath layers for active-layer
	// accounting (4 for the 3D designs; 2DB uses 4 equal-width
	// segments when the shutdown technique is applied to it).
	Layers int

	// LookaheadRC enables look-ahead routing (Figure 8 (c), Galles'
	// SPIDER scheme): each hop's output port is computed one hop in
	// advance, removing the RC stage from the critical path.
	LookaheadRC bool
	// SpecSA enables speculative switch allocation (Figure 8 (b), Peh &
	// Dally): a head flit bids for the crossbar in the same cycle as
	// its VC allocation; if the VA grant fails the speculation is
	// wasted and it retries non-speculatively. Non-speculative requests
	// have priority for switch ports.
	SpecSA bool

	// QoSPriority gives control-class (request/coherence) flits switch
	// priority over data flits (§3.3 suggests the spare 3DM bandwidth
	// could serve QoS provisioning; this is the scheduling half).
	// Within the data class, packets already in flight outrank new
	// heads, and waiting flits age upward one tier per 16 cycles, so
	// nothing starves under a continuous high-priority storm.
	QoSPriority bool

	Policy VCPolicy
	Seed   int64

	// Mode selects the stepping strategy (activity-driven by default);
	// results are identical across modes, only host cost differs.
	Mode StepMode

	// Shards partitions the routers into contiguous ID ranges stepped
	// concurrently inside each cycle (shard.go). 0 or 1 steps
	// sequentially; AutoShards (-1) picks a count from the mesh size
	// and GOMAXPROCS (see autoShards); the count is clamped to the
	// router count. Results are bit-identical for any value — shards
	// trade memory and per-cycle synchronization for multicore scaling
	// on large meshes.
	Shards int
}

// AutoShards, assigned to Config.Shards (or -shards=-1), derives the
// shard count from the mesh size and GOMAXPROCS at construction time.
const AutoShards = -1

// autoShardRouters is the per-shard router budget of the auto heuristic.
// Measured is only what it implies for two shards: 144 routers is the
// smallest mesh where they beat one on the 2-thread ledger host (mirasim
// on 1x1/NxN chips, ur 0.10, median of 5: 8x8 and 10x10 tie for twice the
// CPU, 12x12 wins 1.57 s -> 1.11 s, 16x16 3.64 s -> 2.32 s). As a budget
// for three shards and up it is unmeasured (needs >= 4 threads).
const autoShardRouters = 72

// shardCores is how many shards can hold a core each.
func shardCores() int { return min(runtime.GOMAXPROCS(0), runtime.NumCPU()) }

// autoShards picks the shard count for num routers: one per
// autoShardRouters, at most shardCores (more only park, pool.go), at least one.
func autoShards(num int) int { return max(1, min(num/autoShardRouters, shardCores())) }

// MaxBufDepth bounds BufDepth far above the shipped 8 and 16 flits: the
// ring storage, BufDepth flits per VC, is allocated up front, so an
// unbounded depth is an out-of-memory crash instead of an error.
const MaxBufDepth = 1024

// MaxFlatVCs bounds a router's flat VCs, ports x VCs: its pending sets
// and arbiter requests are one uint64 over them (activity.go,
// arbiter.go), so an oversized router fails loudly at validation
// instead of silently overflowing them.
const MaxFlatVCs = 64

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c.Topo == nil {
		return fmt.Errorf("noc: config has no topology")
	}
	if c.Alg == nil {
		return fmt.Errorf("noc: config has no routing algorithm")
	}
	if c.VCs < 1 {
		return fmt.Errorf("noc: VCs = %d, need >= 1", c.VCs)
	}
	if c.BufDepth < 1 || c.BufDepth > MaxBufDepth {
		return fmt.Errorf("noc: BufDepth = %d, need 1..%d", c.BufDepth, MaxBufDepth)
	}
	if fv := c.Topo.MaxPorts() * c.VCs; fv > MaxFlatVCs {
		return fmt.Errorf("noc: %d ports x %d VCs = %d flat VCs per router, need <= %d (one request-mask word)",
			c.Topo.MaxPorts(), c.VCs, fv, MaxFlatVCs)
	}
	if c.STLTCycles < 1 || c.STLTCycles > 2 {
		return fmt.Errorf("noc: STLTCycles = %d, need 1 or 2", c.STLTCycles)
	}
	if c.Layers < 1 {
		return fmt.Errorf("noc: Layers = %d, need >= 1", c.Layers)
	}
	if int(NumClasses) > c.VCs && c.Policy == ByClass {
		return fmt.Errorf("noc: ByClass policy needs >= %d VCs, have %d", NumClasses, c.VCs)
	}
	if c.Mode > StepChecked {
		return fmt.Errorf("noc: unknown step mode %d", c.Mode)
	}
	if c.Shards < AutoShards {
		return fmt.Errorf("noc: Shards = %d, need >= -1 (-1 = auto)", c.Shards)
	}
	return nil
}

package traffic

import (
	"math/rand"

	"mira/internal/noc"
	"mira/internal/topology"
)

// Uniform is the paper's synthetic uniform-random workload: every node
// injects packets via a Bernoulli process at InjectionRate flits per
// node per cycle, each to a uniformly random other node (§4: "uniform
// random injection rate and random spatial distribution of source and
// destination nodes").
type Uniform struct {
	// Topo supplies the node population.
	Topo *topology.Topology
	// InjectionRate is offered load in flits/node/cycle.
	InjectionRate float64
	// PacketSize is the flit count per packet (the evaluation's data
	// packets are 4 flits of 128 bits: one 64 B cache line).
	PacketSize int
	// ShortFlits optionally marks a fraction of flits short for the
	// layer-shutdown studies; Layers must then be set.
	ShortFlits ShortFlitProfile
}

var _ noc.Generator = (*Uniform)(nil)

// OpenLoop implements noc.OpenLoop: every node is a Bernoulli source.
func (*Uniform) OpenLoop() {}

// Generate implements noc.Generator.
func (u *Uniform) Generate(cycle int64, rng *rand.Rand, specs []noc.Spec) []noc.Spec {
	n := u.Topo.NumNodes()
	pPkt := u.InjectionRate / float64(u.PacketSize)
	for src := 0; src < n; src++ {
		if rng.Float64() >= pPkt {
			continue
		}
		dst := rng.Intn(n - 1)
		if dst >= src {
			dst++
		}
		specs = append(specs, noc.Spec{
			Src:           topology.NodeID(src),
			Dst:           topology.NodeID(dst),
			Size:          u.PacketSize,
			Class:         noc.Data,
			LayersPerFlit: u.ShortFlits.SampleLayers(rng, u.PacketSize),
		})
	}
	return specs
}

// NUCA is the layout-constrained bimodal workload of §4.2.1 ("NUCA-UR"):
// the 8 CPU nodes issue single-flit control requests to uniformly random
// cache nodes; every request is answered by a multi-flit data response
// from that cache back to the CPU after the bank access time. Requests
// travel on the control VC and responses on the data VC (ByClass
// policy), mirroring the paper's one-VC-per-traffic-type design.
type NUCA struct {
	Topo *topology.Topology
	// InjectionRate is the total offered load in flits/node/cycle
	// averaged over all nodes (so it is directly comparable with the
	// Uniform workload at the same x-axis value).
	InjectionRate float64
	// RequestSize and ResponseSize in flits (1 and 4 in the paper's
	// setup: an address packet and a 64 B cache line).
	RequestSize  int
	ResponseSize int
	// ShortFlits applies to response payloads.
	ShortFlits ShortFlitProfile

	// pending is a timing wheel of responses keyed by delivery cycle
	// modulo the wheel size. Responses are always scheduled a fixed
	// bankDelay ahead and cycles are queried in increasing order, so
	// buckets can be recycled in place with no per-cycle map churn.
	pending [][]noc.Spec
	// cpus and caches are Topo's node lists, taken with pending.
	cpus, caches []topology.NodeID
}

var _ noc.Generator = (*NUCA)(nil)

// bankDelay is the cycles between a NUCA request's creation and its
// response entering the cache node's source queue: the L2 bank access
// (4 cycles for a 512 KB bank at 2 GHz, Table 4) plus the request's
// expected network traversal.
const bankDelay = 24

// OpenLoop implements noc.OpenLoop: a response follows its request after
// bankDelay cycles, not after its delivery.
func (*NUCA) OpenLoop() {}

// Generate implements noc.Generator.
func (g *NUCA) Generate(cycle int64, rng *rand.Rand, specs []noc.Spec) []noc.Spec {
	if g.pending == nil {
		// One bucket per cycle of bank delay, plus this cycle's.
		g.pending = make([][]noc.Spec, bankDelay+1)
		g.cpus, g.caches = g.Topo.CPUs(), g.Topo.Caches()
	}
	cpus, caches := g.cpus, g.caches
	if len(cpus) == 0 || len(caches) == 0 {
		return specs
	}
	// Each request/response pair carries RequestSize+ResponseSize
	// flits; solve the per-CPU request probability from the target
	// network-wide injection rate.
	pairFlits := float64(g.RequestSize + g.ResponseSize)
	totalPktPerCycle := g.InjectionRate * float64(g.Topo.NumNodes()) / pairFlits
	pReq := totalPktPerCycle / float64(len(cpus))

	// Release this cycle's matured responses and recycle the bucket.
	slot := cycle % int64(len(g.pending))
	specs = append(specs, g.pending[slot]...)
	g.pending[slot] = g.pending[slot][:0]

	for _, cpu := range cpus {
		if rng.Float64() >= pReq {
			continue
		}
		bank := caches[rng.Intn(len(caches))]
		specs = append(specs, noc.Spec{
			Src:   cpu,
			Dst:   bank,
			Size:  g.RequestSize,
			Class: noc.Control,
		})
		rs := (cycle + bankDelay) % int64(len(g.pending))
		g.pending[rs] = append(g.pending[rs], noc.Spec{
			Src:           bank,
			Dst:           cpu,
			Size:          g.ResponseSize,
			Class:         noc.Data,
			LayersPerFlit: g.ShortFlits.SampleLayers(rng, g.ResponseSize),
		})
	}
	return specs
}

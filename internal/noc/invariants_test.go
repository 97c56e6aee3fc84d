package noc

import (
	"math/bits"
	"math/rand"
	"strings"
	"testing"

	"mira/internal/topology"
)

// TestCheckInvariantsNamesCorruptWord is the negative half of property
// 6 (and 7): on a loaded network that passes the check, corrupting one
// word of the activity state — a pending mask, a route or class mask,
// an RC due mask, a shard-set bit, the packet free list — must fail it
// with the error naming that word.
func TestCheckInvariantsNamesCorruptWord(t *testing.T) {
	// pick returns a router of the loaded network satisfying ok.
	pick := func(t *testing.T, n *Network, ok func(*Router) bool) *Router {
		for i := range n.routers {
			if ok(&n.routers[i]) {
				return &n.routers[i]
			}
		}
		t.Fatal("loaded network has no router in the state this case corrupts")
		return nil
	}
	low := func(m uint64) uint64 { return m & -m }
	for _, c := range []struct {
		name    string
		corrupt func(t *testing.T, n *Network)
		want    string
	}{
		{"inRC", func(t *testing.T, n *Network) {
			r := pick(t, n, func(r *Router) bool { return r.inRC != 0 })
			r.inRC = 0
		}, "inRC mask"},
		{"inVA", func(t *testing.T, n *Network) {
			r := pick(t, n, func(r *Router) bool { return r.inVA != 0 })
			r.inVA &^= low(r.inVA)
		}, "inVA mask"},
		{"inSA", func(t *testing.T, n *Network) {
			r := pick(t, n, func(r *Router) bool { return r.inSA != 0 })
			r.inSA |= low(^r.inSA)
		}, "inSA mask"},
		{"routeTo", func(t *testing.T, n *Network) {
			r := pick(t, n, func(r *Router) bool { return r.inVA != 0 })
			f := bits.TrailingZeros64(r.inVA)
			r.routeTo[r.vcOutPort[f]] &^= 1 << uint(f)
		}, "routeTo["},
		{"dataVCs", func(t *testing.T, n *Network) {
			r := pick(t, n, func(r *Router) bool { return r.dataVCs != 0 })
			r.dataVCs &^= low(r.dataVCs)
		}, "dataVCs mask"},
		{"rcDue lost", func(t *testing.T, n *Network) {
			r := pick(t, n, func(r *Router) bool { return r.inRC != 0 })
			r.rcDue = [2]uint64{}
		}, "do not partition inRC"},
		{"rcDue wrong parity", func(t *testing.T, n *Network) {
			r := pick(t, n, func(r *Router) bool { return r.inRC != 0 })
			r.rcDue[0], r.rcDue[1] = r.rcDue[1], r.rcDue[0]
		}, "left unrouted"},
		{"RC shard set", func(t *testing.T, n *Network) {
			r := pick(t, n, func(r *Router) bool { return r.inRC != 0 })
			r.sh.actRC[(n.cycle+1)&1].remove(int(r.id))
		}, "RC parity-"},
		{"VA shard set", func(t *testing.T, n *Network) {
			r := pick(t, n, func(r *Router) bool { return r.inVA == 0 })
			r.sh.actVA.add(int(r.id))
		}, "VA activity bit true"},
		{"SA shard set", func(t *testing.T, n *Network) {
			r := pick(t, n, func(r *Router) bool { return r.inSA != 0 })
			r.sh.actSA.remove(int(r.id))
		}, "SA activity bit false"},
		{"free list", func(t *testing.T, n *Network) {
			r := pick(t, n, func(r *Router) bool { return r.Occupancy() > 0 })
			for f := range r.vcLen {
				if front := r.vcFrontFlit(f); front != nil {
					n.pktFree = append(n.pktFree, front.Pkt)
					return
				}
			}
		}, "on the free list"},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := cfg2D(2)
			net := NewNetwork(cfg)
			gen := bernoulli(cfg.Topo, 0.3, 4, Data)
			rng := rand.New(rand.NewSource(9))
			for cycle := int64(0); cycle < 300; cycle++ {
				for _, spec := range gen.Generate(cycle, rng, nil) {
					if _, err := net.Enqueue(spec); err != nil {
						t.Fatal(err)
					}
				}
				net.Step()
			}
			if err := net.CheckInvariants(); err != nil {
				t.Fatalf("before the corruption: %v", err)
			}
			c.corrupt(t, net)
			if err := net.CheckInvariants(); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("CheckInvariants = %v, want an error naming %q", err, c.want)
			}
		})
	}
}

// Fairness: two flows contending for one output port share its
// bandwidth roughly evenly under round-robin arbitration.
func TestArbitrationFairness(t *testing.T) {
	cfg := cfg2D(2)
	net := NewNetwork(cfg)
	counts := map[topology.NodeID]int{}
	net.SetEjectHandler(func(p *Packet) { counts[p.Src]++ })
	// Nodes 0 (west of 1) and 2 (east of 1) both flood node 7 via
	// router 1's south port. Keep each source's NI saturated.
	for cycle := 0; cycle < 2500; cycle++ {
		if net.QueuedPackets() < 4 {
			if _, err := net.Enqueue(Spec{Src: 0, Dst: 7, Size: 4, Class: Data}); err != nil {
				t.Fatal(err)
			}
			if _, err := net.Enqueue(Spec{Src: 2, Dst: 7, Size: 4, Class: Data}); err != nil {
				t.Fatal(err)
			}
		}
		net.Step()
	}
	a, b := counts[0], counts[2]
	if a == 0 || b == 0 {
		t.Fatalf("a flow starved: %d vs %d", a, b)
	}
	ratio := float64(a) / float64(b)
	if ratio < 0.7 || ratio > 1.4 {
		t.Errorf("unfair sharing: %d vs %d", a, b)
	}
}

// The latency histogram must be populated and consistent with the mean.
func TestLatencyHistogram(t *testing.T) {
	cfg := cfg2D(2)
	res := shortSim(cfg, bernoulli(cfg.Topo, 0.1, 4, Data))
	h := res.latHist
	if h == nil || h.N() != res.Ejected {
		t.Fatalf("histogram N = %v, want %d", h, res.Ejected)
	}
	if d := h.Mean() - res.AvgLatency; d > 0.5 || d < -0.5 {
		t.Errorf("histogram mean %.2f vs avg latency %.2f", h.Mean(), res.AvgLatency)
	}
	if res.P99Latency < int(res.AvgLatency) {
		t.Errorf("P99 %d below mean %.1f", res.P99Latency, res.AvgLatency)
	}
}

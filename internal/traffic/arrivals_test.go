package traffic

import (
	"math"
	"math/rand"
	"testing"

	"mira/internal/noc"
	"mira/internal/topology"
)

// lawCase is one open-loop generator with the packet probability each
// source should have per cycle. Only packets keep accepts belong to the
// arrival process (NUCA's responses follow their requests).
type lawCase struct {
	name string
	gen  noc.Generator
	arr  *arrivals
	p    map[topology.NodeID]float64 // per source; a source not listed never sends
	keep func(noc.Spec) bool
}

// lawCases builds fresh generators at loads that give each source a few
// thousand packets in lawCycles cycles.
func lawCases(t *testing.T) []lawCase {
	t.Helper()
	mesh := mesh66()
	nuca := topology.NewMesh2D(6, 6, 3.1)
	if err := topology.ApplyNUCALayout2D(nuca); err != nil {
		t.Fatal(err)
	}
	all := func(s noc.Spec) bool { return true }
	each := func(ids []topology.NodeID, p func(topology.NodeID) float64) map[topology.NodeID]float64 {
		m := map[topology.NodeID]float64{}
		for _, id := range ids {
			if q := p(id); q > 0 {
				m[id] = q
			}
		}
		return m
	}
	var ids []topology.NodeID
	for _, n := range mesh.Nodes() {
		ids = append(ids, n.ID)
	}

	u := &Uniform{Topo: mesh, InjectionRate: 0.3, PacketSize: 4}
	g := &NUCA{Topo: nuca, InjectionRate: 0.3, RequestSize: 1, ResponseSize: 4}
	pReq := 0.3 * 36 / 5 / float64(len(nuca.CPUs()))
	perm := &Permutation{Topo: mesh, InjectionRate: 0.3, PacketSize: 4, Dst: Transpose, Name: "transpose"}
	hot := []topology.NodeID{7, 28}
	h := &Hotspot{Topo: mesh, InjectionRate: 0.3, PacketSize: 4, Hot: hot, Frac: 0.3}
	return []lawCase{
		{"uniform", u, &u.arr, each(ids, func(topology.NodeID) float64 { return 0.075 }), all},
		{"nuca", g, &g.arr, each(nuca.CPUs(), func(topology.NodeID) float64 { return pReq }),
			func(s noc.Spec) bool { return s.Class == noc.Control }},
		{"permutation", perm, &perm.arr, each(ids, func(id topology.NodeID) float64 {
			if Transpose(mesh, id) == id {
				return 0 // the diagonal sends to itself, so never
			}
			return 0.075
		}), all},
		// A hotspot source drops the packets it draws to itself.
		{"hotspot", h, &h.arr, each(ids, func(id topology.NodeID) float64 {
			self := 0.7 / 36
			for _, x := range hot {
				if x == id {
					self += 0.3 / float64(len(hot))
				}
			}
			return 0.075 * (1 - self)
		}), all},
	}
}

const lawCycles = 20000

// chi2Crit is the 0.999 quantile of chi-square with k degrees of
// freedom (Wilson-Hilferty).
func chi2Crit(k int) float64 {
	a := 2 / (9 * float64(k))
	return float64(k) * math.Pow(1-a+3.09*math.Sqrt(a), 3)
}

// TestArrivalLaw holds each open-loop generator's sources to the
// Bernoulli law at a fixed seed: per-source packet counts over
// lawCycles cycles fit Binomial(lawCycles, p), and the gaps between a
// source's packets fit the geometric law P(g) = p(1-p)^(g-1), each by a
// chi-square test at 0.999.
func TestArrivalLaw(t *testing.T) {
	for _, tc := range lawCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			last := map[topology.NodeID]int64{}
			count := map[topology.NodeID]int{}
			gaps := map[topology.NodeID]map[int64]int{}
			var specs []noc.Spec
			for c := int64(0); c < lawCycles; c++ {
				specs = tc.gen.Generate(c, rng, specs[:0])
				for _, s := range specs {
					if !tc.keep(s) {
						continue
					}
					if _, ok := tc.p[s.Src]; !ok {
						t.Fatalf("cycle %d: source %d sent, want never", c, s.Src)
					}
					if l, ok := last[s.Src]; ok {
						if gaps[s.Src] == nil {
							gaps[s.Src] = map[int64]int{}
						}
						gaps[s.Src][c-l]++
					}
					last[s.Src] = c
					count[s.Src]++
				}
			}

			var x2 float64
			for id, p := range tc.p {
				mean := lawCycles * p
				d := float64(count[id]) - mean
				x2 += d * d / (mean * (1 - p))
			}
			if crit := chi2Crit(len(tc.p)); x2 > crit {
				t.Errorf("per-source counts: chi-square %.1f over %d sources, 0.999 critical %.1f", x2, len(tc.p), crit)
			}

			// Pool the gaps of every source into bins 1..top, each bin's
			// expectation summed over the sources, the last bin the tail.
			const top = 60
			var obs, exp [top + 1]float64
			for id, p := range tc.p {
				n := 0
				for g, k := range gaps[id] {
					obs[min(g, top)] += float64(k)
					n += k
				}
				for g := 1; g < top; g++ {
					exp[g] += float64(n) * p * math.Pow(1-p, float64(g-1))
				}
				exp[top] += float64(n) * math.Pow(1-p, top-1)
			}
			x2, bins := 0, 0
			var o, e float64
			for g := top; g >= 1; g-- { // merge from the tail until a bin expects 5
				o, e = o+obs[g], e+exp[g]
				if e >= 5 {
					x2 += (o - e) * (o - e) / e
					bins++
					o, e = 0, 0
				}
			}
			if crit := chi2Crit(bins - 1); x2 > crit {
				t.Errorf("gaps: chi-square %.1f over %d bins, 0.999 critical %.1f (gap 1: %.0f seen, %.0f expected)",
					x2, bins, crit, obs[1], exp[1])
			}
		})
	}
}

// TestArrivalsFirstCycle: cycle 0 is a Bernoulli trial like any other.
// A source at p >= 1 sends from cycle 0 on, every cycle; at p = 0.25
// the packets of cycle 0 over 40 seeds' 36 sources number 360 +- 4
// standard deviations.
func TestArrivalsFirstCycle(t *testing.T) {
	mesh := mesh66()
	every := &Uniform{Topo: mesh, InjectionRate: 1, PacketSize: 1}
	rng := rand.New(rand.NewSource(1))
	for c := int64(0); c < 3; c++ {
		if n := len(every.Generate(c, rng, nil)); n != 36 {
			t.Fatalf("p = 1, cycle %d: %d packets, want 36", c, n)
		}
	}
	first := 0
	for seed := int64(0); seed < 40; seed++ {
		u := &Uniform{Topo: mesh, InjectionRate: 1, PacketSize: 4}
		first += len(u.Generate(0, rand.New(rand.NewSource(seed)), nil))
	}
	if sd := math.Sqrt(40 * 36 * 0.25 * 0.75); math.Abs(float64(first)-360) > 4*sd {
		t.Errorf("cycle 0 sent %d packets over 40 seeds, want 360 +- %.0f", first, 4*sd)
	}
}

// TestArrivalsEarliestCycle: after every Generate, the cycle a
// generator waits for is the least of its sources' next arrivals and
// lies ahead, so a cycle before it can return at once.
func TestArrivalsEarliestCycle(t *testing.T) {
	for _, tc := range lawCases(t) {
		rng := rand.New(rand.NewSource(3))
		var specs []noc.Spec
		for c := int64(0); c < 2000; c++ {
			specs = tc.gen.Generate(c, rng, specs[:0])
			least := int64(never)
			for _, n := range tc.arr.next {
				least = min(least, n)
			}
			if tc.arr.first != least || least <= c {
				t.Fatalf("%s, cycle %d: earliest arrival %d, least next arrival %d", tc.name, c, tc.arr.first, least)
			}
		}
	}
}

// countingSource counts the draws a rand.Rand makes.
type countingSource struct {
	rand.Source
	n int
}

func (s *countingSource) Int63() int64 { s.n++; return s.Source.Int63() }

// TestArrivalsDrawPerPacket: a source draws once to start and then a
// bounded number of times per packet (its next gap, its destination and,
// for a hotspot, the hot pick), never once per cycle.
func TestArrivalsDrawPerPacket(t *testing.T) {
	for _, tc := range lawCases(t) {
		src := &countingSource{Source: rand.NewSource(5)}
		rng := rand.New(src)
		var specs []noc.Spec
		packets := 0
		for c := int64(0); c < lawCycles; c++ {
			specs = tc.gen.Generate(c, rng, specs[:0])
			for _, s := range specs {
				if tc.keep(s) {
					packets++
				}
			}
		}
		if bound := len(tc.arr.next) + 3*packets; src.n > bound {
			t.Errorf("%s: %d draws for %d packets from %d sources, want <= %d", tc.name, src.n, packets, len(tc.arr.next), bound)
		}
	}
}

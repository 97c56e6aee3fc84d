package core

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"mira/internal/noc"
)

func TestActiveLayers(t *testing.T) {
	ones := ^uint32(0)
	cases := []struct {
		words []uint32
		want  uint8
	}{
		{[]uint32{0xdead, 0, 0, 0}, 1},          // short: zeros above
		{[]uint32{0xdead, ones, ones, ones}, 1}, // short: sign extension
		{[]uint32{0, 0, 0, 0}, 1},               // all-zero flit
		{[]uint32{1, 2, 0, 0}, 2},
		{[]uint32{1, 0, 3, 0}, 3},
		{[]uint32{1, 0, 0, 4}, 4},
		{[]uint32{1, ones, ones, 4}, 4},
		{[]uint32{7}, 1},
		{nil, 1},
	}
	for _, c := range cases {
		if got := ActiveLayers(c.words); got != c.want {
			t.Errorf("ActiveLayers(%x) = %d, want %d", c.words, got, c.want)
		}
	}
}

func TestIsShort(t *testing.T) {
	if !IsShort([]uint32{42, 0, 0, 0}) {
		t.Errorf("zero-extended word should be short")
	}
	if IsShort([]uint32{42, 0, 1, 0}) {
		t.Errorf("informative middle word is not short")
	}
}

// Property: ActiveLayers is the minimal prefix that preserves all
// information (every dropped word is redundant, and the last kept word
// of a >1-layer flit is informative).
func TestActiveLayersMinimal(t *testing.T) {
	f := func(raw [4]uint32) bool {
		words := raw[:]
		n := int(ActiveLayers(words))
		for i := n; i < len(words); i++ {
			if !wordRedundant(words[i]) {
				return false
			}
		}
		if n > 1 && wordRedundant(words[n-1]) {
			return false
		}
		return n >= 1 && n <= len(words)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestAllDesignsElaborate(t *testing.T) {
	for _, a := range Archs {
		d, err := NewDesign(a)
		if err != nil {
			t.Fatalf("%v: %v", a, err)
		}
		if d.Topo.NumNodes() != 36 {
			t.Errorf("%v: nodes = %d, want 36", a, d.Topo.NumNodes())
		}
		if got := len(d.Topo.CPUs()); got != 8 {
			t.Errorf("%v: CPUs = %d, want 8", a, got)
		}
		cfg := d.NoCConfig(noc.AnyFree, 1)
		if err := cfg.Validate(); err != nil {
			t.Errorf("%v: invalid noc config: %v", a, err)
		}
	}
}

func TestDesignPorts(t *testing.T) {
	wants := map[Arch]int{
		Arch2DB: 5, Arch3DB: 7, Arch3DM: 5, Arch3DMNC: 5, Arch3DME: 9, Arch3DMENC: 9,
	}
	for a, want := range wants {
		d := MustDesign(a)
		if got := d.Topo.MaxPorts(); got != want {
			t.Errorf("%v: max ports = %d, want %d", a, got, want)
		}
		if d.AreaParams.Ports != want {
			t.Errorf("%v: area ports = %d, want %d", a, d.AreaParams.Ports, want)
		}
	}
}

func TestPipelineSelection(t *testing.T) {
	// Table 3: only the multi-layer designs combine ST and LT; the NC
	// variants are forced back to the separate link stage.
	wants := map[Arch]int{
		Arch2DB: 2, Arch3DB: 2, Arch3DM: 1, Arch3DMNC: 2, Arch3DME: 1, Arch3DMENC: 2,
	}
	for a, want := range wants {
		if got := MustDesign(a).STLTCycles; got != want {
			t.Errorf("%v: STLT cycles = %d, want %d", a, got, want)
		}
	}
}

func TestLinkLengths(t *testing.T) {
	if MustDesign(Arch2DB).LinkLenMM != 3.1 {
		t.Errorf("2DB link length wrong")
	}
	if MustDesign(Arch3DM).LinkLenMM != 1.58 {
		t.Errorf("3DM link length wrong")
	}
}

func TestArchString(t *testing.T) {
	if Arch3DME.String() != "3DM-E" || Arch2DB.String() != "2DB" {
		t.Errorf("arch names wrong")
	}
	if Arch(99).String() == "" {
		t.Errorf("unknown arch should still stringify")
	}
}

// End-to-end smoke test: every design runs a short uniform-random
// simulation without deadlock and delivers everything.
func TestDesignsSimulate(t *testing.T) {
	for _, a := range Archs {
		d := MustDesign(a)
		net := noc.NewNetwork(d.NoCConfig(noc.AnyFree, 7))
		gen := noc.GeneratorFunc(func(cycle int64, rng *rand.Rand, out []noc.Spec) []noc.Spec {
			n := d.Topo.NumNodes()
			for src := 0; src < n; src++ {
				if rng.Float64() < 0.02 {
					dst := rng.Intn(n - 1)
					if dst >= src {
						dst++
					}
					out = append(out, noc.Spec{
						Src: d.Topo.Nodes()[src].ID, Dst: d.Topo.Nodes()[dst].ID,
						Size: DataPacketFlits, Class: noc.Data,
					})
				}
			}
			return out
		})
		s := noc.NewSim(net, gen)
		s.Params = noc.SimParams{Warmup: 200, Measure: 1500, DrainMax: 5000}
		res := s.Run(context.Background())
		if res.Generated == 0 || res.Ejected != res.Generated {
			t.Errorf("%v: delivery failed: %v", a, res.String())
		}
	}
}

package noc_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"mira/internal/noc"
	"mira/internal/routing"
	"mira/internal/scenario"
	"mira/internal/topology"
)

// openLoop is a test generator that declares itself open-loop.
type openLoop struct{ noc.GeneratorFunc }

func (openLoop) OpenLoop() {}

// aheadGoroutines counts the generator goroutines in the process.
func aheadGoroutines() int { return noc.CreatedBy("mira/internal/noc.(*Sim).startAhead") }

// force runs f with generation forced ahead (v > 0) or inline (v < 0).
func force(v int, f func()) {
	noc.SetGenerateAhead(v)
	defer noc.SetGenerateAhead(0)
	f()
}

func mesh4x4() noc.Config {
	return noc.Config{
		Topo: topology.NewMesh2D(4, 4, 3.1), Alg: routing.DOR{},
		VCs: 2, BufDepth: 8, STLTCycles: 2, Layers: 4,
		Policy: noc.AnyFree, Seed: 5,
	}
}

// TestGenerateAheadBitIdentical pins generating ahead to generating
// inline: the same Result bytes for every open-loop traffic kind, with
// chunk boundaries on the warmup and measure ends and chunks closed by
// the spec cap; every packet created at the cycle its spec was generated
// for; and the goroutine joined, its thread returned and a generator's
// panic re-raised on the caller at its own cycle.
func TestGenerateAheadBitIdentical(t *testing.T) {
	if b := noc.AheadChunks * noc.AheadSpecs * int(unsafe.Sizeof(noc.Spec{})+8); b > 64<<10 {
		t.Errorf("%d B of chunks in flight, budget 64 KB", b)
	}
	C := int64(noc.AheadCycles)
	for _, tc := range []struct {
		name    string
		traffic scenario.Traffic
		warmup  int64
		measure int64
	}{
		// 0.09 packets a cycle: chunks close at AheadCycles, so on the
		// warmup and measure ends.
		{"ur_short", scenario.Traffic{Kind: "ur", Rate: 0.01, ShortFrac: 0.3}, C, 2 * C},
		// 2.7 packets a cycle: chunks close at the spec cap.
		{"ur_dense", scenario.Traffic{Kind: "ur", Rate: 0.3}, 700, 1500},
		{"nuca", scenario.Traffic{Kind: "nuca", Rate: 0.1}, C, C + 300},
		{"transpose", scenario.Traffic{Kind: "transpose", Rate: 0.1}, 300, 2 * C},
		{"hotspot", scenario.Traffic{Kind: "hotspot", Rate: 0.1, HotFrac: 0.3}, 500, 2000},
		{"trace", scenario.Traffic{Kind: "trace", Workload: "barnes", TraceCycles: 2000}, C, 3 * C},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc := scenario.Scenario{Arch: "3DM", Traffic: tc.traffic, Warmup: tc.warmup, Measure: tc.measure, Drain: 20000, Seed: 11}
			var out [2][]byte
			for i, v := range []int{-1, 1} {
				force(v, func() {
					e, err := sc.Elaborate()
					if err != nil {
						t.Fatal(err)
					}
					m := e.Net.EnableEngineMeter()
					res := e.Sim.Run(context.Background())
					if res.Generated == 0 {
						t.Fatal("no measured packets; test is vacuous")
					}
					if busy := m.Snapshot().GenBusyNs; (busy > 0) != (v > 0) {
						t.Fatalf("forced %+d: GenBusyNs = %d", v, busy)
					}
					if out[i], err = json.Marshal(res); err != nil {
						t.Fatal(err)
					}
				})
			}
			if !bytes.Equal(out[0], out[1]) {
				t.Fatalf("ahead differs from inline:\ninline %s\nahead  %s", out[0], out[1])
			}
		})
	}

	// Every packet carries its creation cycle in its spec: a cycle
	// skipped, or a chunk refilled under the kernel, shows as a mismatch.
	t.Run("tagged", func(t *testing.T) {
		cfg := mesh4x4()
		nodes := int64(cfg.Topo.NumNodes())
		gen := openLoop{func(c int64, _ *rand.Rand, specs []noc.Spec) []noc.Spec {
			for k := int64(0); k < c%3; k++ {
				specs = append(specs, noc.Spec{Src: topology.NodeID(c % nodes), Dst: topology.NodeID((c + 1 + k) % nodes), Size: 1 + int(c%4), Class: noc.Data})
			}
			return specs
		}}
		force(1, func() {
			s := noc.NewSim(noc.NewNetwork(cfg), gen)
			s.Params = noc.SimParams{Warmup: 100, Measure: 3*C + 17, DrainMax: 20000}
			var seen int64
			s.OnEject = func(p *noc.Packet) {
				seen++
				c := p.CreatedAt
				if int64(p.Src) != c%nodes || p.Size != 1+int(c%4) {
					t.Fatalf("packet created at %d is %d->%d size %d: not its cycle's spec", c, p.Src, p.Dst, p.Size)
				}
			}
			res := s.Run(context.Background())
			want := int64(0)
			for c := int64(0); c < 100+3*C+17; c++ {
				want += c % 3
			}
			if seen != want || res.Ejected != res.Generated {
				t.Fatalf("%d packets ejected (%d/%d measured), want %d", seen, res.Ejected, res.Generated, want)
			}
		})
	})

	t.Run("canceled", func(t *testing.T) {
		base, live := aheadGoroutines(), noc.LiveThreads()
		cfg := mesh4x4()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		running := -1
		gen := openLoop{func(c int64, rng *rand.Rand, specs []noc.Spec) []noc.Spec {
			if c == C+C/2 {
				running = aheadGoroutines()
				cancel() // mid-chunk, far from the end of the run
			}
			if rng.Float64() < 0.1 {
				specs = append(specs, noc.Spec{Src: 0, Dst: 5, Size: 2, Class: noc.Data})
			}
			return specs
		}}
		force(1, func() {
			s := noc.NewSim(noc.NewNetwork(cfg), gen)
			s.Params = noc.SimParams{Warmup: 100, Measure: 1 << 30, DrainMax: 100}
			if res := s.Run(ctx); !res.Canceled {
				t.Fatal("run not canceled")
			}
		})
		if running != base+1 {
			t.Fatalf("%d generator goroutines while generating, want baseline %d + 1", running, base)
		}
		if l := noc.LiveThreads(); l != live {
			t.Fatalf("%d simulation threads after a canceled run, want baseline %d", l, live)
		}
		if !noc.WaitFor(func() bool { return aheadGoroutines() == base }) {
			t.Fatalf("%d generator goroutines after a canceled run, want baseline %d", aheadGoroutines(), base)
		}
	})

	t.Run("panic", func(t *testing.T) {
		for _, tc := range [][2]int64{{-1, 7}, {1, 7}, {-1, C + 7}, {1, C + 7}} {
			v, at := int(tc[0]), tc[1] // the first chunk is generated on the caller

			base, live := aheadGoroutines(), noc.LiveThreads()
			gen := openLoop{func(c int64, _ *rand.Rand, specs []noc.Spec) []noc.Spec {
				if c == at {
					panic(fmt.Sprintf("generator failed at %d", c))
				}
				return append(specs, noc.Spec{Src: 1, Dst: 2, Size: 1, Class: noc.Data})
			}}
			net := noc.NewNetwork(mesh4x4())
			s := noc.NewSim(net, gen)
			s.Params = noc.SimParams{Warmup: 10, Measure: 4 * C, DrainMax: 100}
			force(v, func() {
				defer func() {
					if r := recover(); r != fmt.Sprintf("generator failed at %d", at) {
						t.Fatalf("forced %+d: Run raised %v", v, r)
					}
				}()
				s.Run(context.Background())
			})
			if net.Cycle() != at {
				t.Fatalf("forced %+d: panic raised after %d cycles, want %d", v, net.Cycle(), at)
			}
			if l := noc.LiveThreads(); l != live {
				t.Fatalf("forced %+d: %d simulation threads after the panic, want baseline %d", v, l, live)
			}
			if !noc.WaitFor(func() bool { return aheadGoroutines() == base }) {
				t.Fatalf("forced %+d: %d generator goroutines after the panic, want baseline %d", v, aheadGoroutines(), base)
			}
		}
	})
}

// TestGenerateAheadBudget pins when Sim.Run generates ahead on its own:
// only for an open-loop generator on an unsharded network, and only
// while the goroutine's thread keeps the process within its cores.
func TestGenerateAheadBudget(t *testing.T) {
	bern := noc.GeneratorFunc(func(_ int64, rng *rand.Rand, specs []noc.Spec) []noc.Spec {
		if rng.Float64() < 0.2 {
			specs = append(specs, noc.Spec{Src: 3, Dst: 9, Size: 2, Class: noc.Data})
		}
		return specs
	})
	ahead := func(gen noc.Generator, shards int) bool {
		cfg := mesh4x4()
		cfg.Shards = shards
		net := noc.NewNetwork(cfg)
		m := net.EnableEngineMeter()
		s := noc.NewSim(net, gen)
		s.Params = noc.SimParams{Warmup: 100, Measure: 2000, DrainMax: 5000}
		s.Run(context.Background())
		return m.Snapshot().GenBusyNs > 0
	}
	cores := min(runtime.GOMAXPROCS(0), runtime.NumCPU())
	if got, want := ahead(openLoop{bern}, 1), noc.LiveThreads()+2 <= int64(cores); got != want {
		t.Errorf("open-loop at %d cores: ahead %v, want %v", cores, got, want)
	}
	force(1, func() {
		if ahead(bern, 1) {
			t.Error("a generator that is not open-loop went ahead")
		}
		if ahead(openLoop{bern}, 2) {
			t.Error("a sharded run went ahead")
		}
	})
}

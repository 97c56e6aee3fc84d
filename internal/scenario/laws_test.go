package scenario

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"mira/internal/core"
	"mira/internal/noc"
)

// TestArchPairLaws holds architectures that share a fabric and a
// pipeline to the laws that sharing implies, on one seed:
//   - 2DB and 3DM(NC) are the same 6x6 NUCA mesh with the same 2-cycle
//     ST+LT, so their Results agree in every field, Counters and
//     PerRouter included, except the link length sums, whose ratio is
//     exactly the pitch ratio;
//   - 3DM and 3DM(NC), and 3DM-E and 3DM-E(NC), differ only in ST+LT
//     timing, so they generate the same packets and, below saturation,
//     route them over the same number of hops.
func TestArchPairLaws(t *testing.T) {
	run := func(arch, kind string, rate float64) noc.Result {
		t.Helper()
		sc := Scenario{Arch: arch, Traffic: Traffic{Kind: kind, Rate: rate},
			Warmup: 200, Measure: 800, Drain: 3000, Seed: 42}
		e, err := sc.Elaborate()
		if err != nil {
			t.Fatal(err)
		}
		out, err := e.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if out.Result.Saturated || out.Result.Ejected == 0 {
			t.Fatalf("%s %s@%.2f: %v; the laws hold below saturation", arch, kind, rate, out.Result.String())
		}
		return out.Result
	}
	const pitchRatio = core.Pitch2DMM / core.Pitch3DMMM
	for _, kind := range []string{"ur", "nuca"} {
		for _, rate := range []float64{0.05, 0.15} {
			t.Run(fmt.Sprintf("%s-%.2f", kind, rate), func(t *testing.T) {
				planar, nc := run("2DB", kind, rate), run("3DM(NC)", kind, rate)
				ratio := func(where string, p, m noc.Counters) {
					for _, f := range []struct {
						name string
						p, m float64
					}{{"LinkMMFlits", p.LinkMMFlits, m.LinkMMFlits}, {"WLinkMMFlits", p.WLinkMMFlits, m.WLinkMMFlits}} {
						if f.m == 0 && f.p == 0 {
							continue
						}
						if got := f.p / f.m; math.Abs(got-pitchRatio) > 1e-12*pitchRatio {
							t.Errorf("%s %s: 2DB/3DM(NC) = %.17g, want the pitch ratio %.17g", where, f.name, got, pitchRatio)
						}
					}
				}
				ratio("Counters", planar.Counters, nc.Counters)
				if len(planar.PerRouter) != len(nc.PerRouter) {
					t.Fatalf("PerRouter: %d vs %d routers", len(planar.PerRouter), len(nc.PerRouter))
				}
				for i := range planar.PerRouter {
					ratio(fmt.Sprintf("PerRouter[%d]", i), planar.PerRouter[i], nc.PerRouter[i])
				}
				if a, b := withoutLinkMM(t, planar), withoutLinkMM(t, nc); a != b {
					t.Errorf("2DB and 3DM(NC) differ beyond the link length sums:\n%s\n%s", a, b)
				}
				for _, pair := range [][2]string{{"3DM", "3DM(NC)"}, {"3DM-E", "3DM-E(NC)"}} {
					c, n := run(pair[0], kind, rate), run(pair[1], kind, rate)
					if c.Generated != n.Generated || c.AvgHops != n.AvgHops {
						t.Errorf("%s vs %s: generated %d vs %d, avg hops %v vs %v",
							pair[0], pair[1], c.Generated, n.Generated, c.AvgHops, n.AvgHops)
					}
				}
			})
		}
	}
}

// withoutLinkMM is r's JSON with the link length sums zeroed, in the
// totals and per router.
func withoutLinkMM(t *testing.T, r noc.Result) string {
	r.Counters.LinkMMFlits, r.Counters.WLinkMMFlits = 0, 0
	r.PerRouter = append([]noc.Counters(nil), r.PerRouter...)
	for i := range r.PerRouter {
		r.PerRouter[i].LinkMMFlits, r.PerRouter[i].WLinkMMFlits = 0, 0
	}
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

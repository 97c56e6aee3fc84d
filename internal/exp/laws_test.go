package exp

import (
	"context"
	"fmt"
	"testing"

	"mira/internal/core"
	"mira/internal/noc"
	"mira/internal/scenario"
)

// sojournProbe sums (eject cycle - creation cycle) over ejected flits.
type sojournProbe struct{ sojourn, flits int64 }

func (p *sojournProbe) ProbeEvent(ev noc.ProbeEvent) {
	if ev.Kind == noc.ProbeEject {
		p.sojourn += ev.Cycle - ev.Created
		p.flits++
	}
}

// TestLittlesLawQuickUR holds every -quick point of Figures 11 (a) and
// 11 (b) — each architecture at each URRates load, uniform random and
// NUCA-UR, on each figure's seeds — to Little's law, exactly: the
// backlog summed over cycles equals the flits' summed sojourns. OnCycle
// reads BacklogFlits after the cycle's Step, so a flit enqueued in cycle
// c (Created c, counted from the read after cycle c+1) and ejected in
// cycle e is in the reads of cycles c+1 .. e-1: its sojourn e-c less
// one. The law needs every flit to have ejected, so a point that does
// not drain fails by name.
func TestLittlesLawQuickUR(t *testing.T) {
	for _, kind := range []string{"ur", "nuca"} {
		t.Run(kind, func(t *testing.T) {
			o := Quick()
			var scs []scenario.Scenario
			for _, rate := range URRates {
				for _, a := range core.Archs {
					scs = append(scs, o.synthetic(a, kind, rate))
				}
			}
			err := runPoints(context.Background(), o, scs, func(ctx context.Context, i int, sc scenario.Scenario) error {
				var p sojournProbe
				var backlog int64
				var net *noc.Network
				_, err := run(ctx, o, sc, func(e *scenario.Elaboration) {
					net = e.Net
					net.SetProbe(&p)
					e.Sim.OnCycle = func(int64) { backlog += net.BacklogFlits() }
				})
				switch {
				case err != nil:
					return err
				case net.BacklogFlits() != 0:
					return fmt.Errorf("%s %s at %.2f: %d flits left undrained", kind, sc.Arch, sc.Traffic.Rate, net.BacklogFlits())
				case p.flits == 0 || backlog != p.sojourn-p.flits:
					return fmt.Errorf("%s %s at %.2f: backlog summed over cycles %d, sojourns of %d flits %d (want sojourns - flits)",
						kind, sc.Arch, sc.Traffic.Rate, backlog, p.flits, p.sojourn)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

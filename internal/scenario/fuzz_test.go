package scenario

import (
	"context"
	"testing"
)

// FuzzScenarioJSON holds the scenario front door to its contract: any
// bytes either fail Decode, Validate or Elaborate, or run to the end in
// step_mode "checked" (every simulator invariant checked after every
// cycle) without a panic. To keep one exec under a second the harness
// first shrinks each window and trace_cycles to at most 1 000 cycles,
// caps shards at 4, skips fabrics of more than 256 routers, and skips
// "replay", which reads a host file (traffic's FuzzReadTrace covers the
// reader).
func FuzzScenarioJSON(f *testing.F) {
	for _, seed := range []string{
		`{"arch":"3DM","traffic":{"kind":"ur","rate":0.15},"warmup":100,"measure":500,"drain":1000,"seed":1}`,
		`{"arch":"3DM-E","traffic":{"kind":"hotspot","rate":0.3,"hot_frac":0.5},"measure":400,"drain":800,"shards":3,"lookahead_rc":true,"spec_sa":true}`,
		`{"arch":"2DB","traffic":{"kind":"nuca","rate":0.1,"short_frac":0.3},"measure":300,"drain":600,"vcs":4,"buf_depth":2,"stlt_cycles":1,"qos_priority":true}`,
		`{"arch":"2DB","traffic":{"kind":"tornado","rate":0.2},"measure":300,"drain":600,"routing":"westfirst","faults":[{"src":7,"dir":"east"}]}`,
		`{"arch":"3DB","traffic":{"kind":"trace","workload":"barnes","protocol":"moesi","trace_cycles":500},"measure":500,"drain":1000}`,
		`{"arch":"2DB","traffic":{"kind":"collective","collective":{"algorithm":"tree-broadcast","participants":8,"iterations":2}},"measure":1000,"drain":1000}`,
		`{"arch":"2DB","traffic":{"kind":"ur","rate":0.1},"measure":400,"drain":800,"shards":-1,"chips":{"chips_x":2,"chips_y":2,"nodes_x":3,"nodes_y":3,"d2d_latency":6,"d2d_ser_cycles":2,"express":true}}`,
		`{"arch":"3DM","traffic":{"kind":"complement","rate":0.1},"measure":300,"drain":600,"observe":{"window":100,"per_vc_nodes":[0,5],"trace_nodes":[3],"trace_class":"data","spans":true,"engine":true}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := Decode(data)
		if err != nil || sc.Traffic.Kind == "replay" {
			return
		}
		sc.Warmup, sc.Measure, sc.Drain = min(sc.Warmup, 1000), min(sc.Measure, 1000), min(sc.Drain, 1000)
		sc.Traffic.TraceCycles = min(sc.Traffic.TraceCycles, 1000)
		sc.Shards, sc.StepMode = min(sc.Shards, 4), "checked"
		if c := sc.Chips; c != nil && (c.ChipsX > 256 || c.ChipsY > 256 || c.NodesX > 256 || c.NodesY > 256 ||
			c.ChipsX*c.ChipsY*c.NodesX*c.NodesY > 256) {
			return
		}
		e, err := sc.Elaborate()
		if err != nil {
			return
		}
		if _, err := e.Run(context.Background()); err != nil {
			t.Fatalf("%s: %v", data, err)
		}
	})
}

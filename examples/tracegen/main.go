// Tracegen example: generate a NUCA coherence trace with the CMP
// substrate (the stand-in for the paper's Simics traces), write it to
// disk in the portable text format, read it back, and replay it through
// two router architectures.
//
// Run with: go run ./examples/tracegen [workload]
package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"mira/internal/cmp"
	"mira/internal/exp"
	"mira/internal/scenario"
	"mira/internal/traffic"
)

func main() {
	name := "tpcw"
	if len(os.Args) > 1 {
		name = os.Args[1]
	}
	if _, ok := cmp.ByName(name); !ok {
		fmt.Fprintf(os.Stderr, "unknown workload %q; available:", name)
		for _, w := range cmp.Workloads {
			fmt.Fprintf(os.Stderr, " %s", w.Name)
		}
		fmt.Fprintln(os.Stderr)
		os.Exit(2)
	}

	// A "trace" scenario generates the trace on the design's own
	// topology (node IDs differ between planar and stacked layouts).
	sc := scenario.Scenario{
		Traffic: scenario.Traffic{Kind: "trace", Workload: name, TraceCycles: 20000},
		Warmup:  1000, Measure: 8000, Drain: 20000, Seed: 11,
	}
	for _, arch := range []string{"2DB", "3DM-E"} {
		sc.Arch = arch
		e, err := sc.Elaborate()
		check(err)
		if arch == "2DB" { // write the first trace out and read it back
			tr := e.Trace
			fmt.Printf("generated %d packets (%d flits) over %d cycles\n",
				len(tr.Events), tr.Flits(), tr.Span())
			fmt.Printf("short flits: %.1f%%, control packets: %.0f%%\n",
				e.Stats.ShortFlitPct(), 100*e.Stats.ControlPacketFrac())

			path := filepath.Join(os.TempDir(), name+".trace")
			f, err := os.Create(path)
			check(err)
			_, err = tr.WriteTo(f)
			check(err)
			check(f.Close())
			fmt.Printf("wrote %s\n", path)

			f, err = os.Open(path)
			check(err)
			loaded, err := traffic.ReadTrace(f)
			check(err)
			check(f.Close())
			fmt.Printf("reloaded %d events (name %q)\n\n", len(loaded.Events), loaded.Name)
		}
		out, err := e.Run(context.Background())
		check(err)
		fmt.Printf("%-8s replay: %s  power=%.3f W\n",
			arch, out.Result.String(), exp.NetworkPowerW(e.Design, out.Result, true))
	}
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}

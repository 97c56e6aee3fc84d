package main

import (
	"bytes"
	"embed"
	"encoding/json"
	"fmt"
)

//go:embed workloads/*.json
var workloadFiles embed.FS

// workload is one set of inputs the benchmark runs. Why is the reason it
// exists, in BENCHMARK.json's words (a test keeps the two equal).
type workload struct {
	Name string
	Why  string
	// File is the committed scenario under workloads/; empty for
	// paper_suite, whose input is mirabench's own experiment list.
	File string
	// Twin names the sequential workload a sharded one must agree with,
	// digest for digest, and is timed against for shard.speedup_vs_seq.
	Twin string
	// Meter turns the engine meter on in the traced pass.
	Meter bool
}

const paperSuite = "paper_suite"

var workloads = []workload{
	{Name: paperSuite,
		Why: "mirabench -quick all: hundreds of short runs over every architecture and traffic kind, so elaboration, trace generation, the worker pool and table rendering all count"},
	{Name: "ur6x6_dense", File: "ur6x6_dense.json",
		Why: "the paper's 6x6 fabric near saturation (0.30 flits/node/cycle): per-flit stage cost in Network.Step dominates"},
	{Name: "ur6x6_sparse", File: "ur6x6_sparse.json",
		Why: "same fabric at 0.02 flits/node/cycle over 2 M cycles: per-cycle fixed cost and the generator dominate, flit work is small"},
	{Name: "mesh16_seq", File: "mesh16_seq.json", Meter: true,
		Why: "16x16 mesh stepped sequentially: 7x the cache footprint of 6x6, and the twin the sharded run is checked against"},
	{Name: "mesh16_shard2", File: "mesh16_shard2.json", Twin: "mesh16_seq", Meter: true,
		Why: "the same mesh with shards=2: the only workload where the barrier, mailboxes and worker pool do work"},
	{Name: "chiplet_bcast", File: "chiplet_bcast.json",
		Why: "closed-loop tree broadcast over a 2x2 chiplet grid: collective delivery hook and serialized d2d links, most routers idle"},
	{Name: "ur6x6_observed", File: "ur6x6_observed.json",
		Why: "sampler, span builder and JSONL trace writer attached: internal/obs does most of the work, detached everywhere else"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// smokeDivisor shrinks the simulation windows for -smoke, which checks
// the harness end to end and measures nothing worth keeping.
const smokeDivisor = 100

// generateScenario makes the workload's input from the seed: the
// committed scenario with "seed" overwritten and, for a smoke pass, the
// windows divided. Number literals pass through untouched.
func generateScenario(w workload, seed int64, smoke bool) (json.RawMessage, error) {
	data, err := workloadFiles.ReadFile("workloads/" + w.File)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var sc map[string]any
	if err := dec.Decode(&sc); err != nil {
		return nil, fmt.Errorf("%s: %w", w.File, err)
	}
	sc["seed"] = seed
	if smoke {
		for _, key := range []string{"warmup", "measure", "drain"} {
			n, ok := sc[key].(json.Number)
			if !ok {
				return nil, fmt.Errorf("%s: %q is not a number", w.File, key)
			}
			v, err := n.Int64()
			if err != nil {
				return nil, fmt.Errorf("%s: %q: %w", w.File, key, err)
			}
			sc[key] = v / smokeDivisor
		}
	}
	return json.Marshal(sc)
}

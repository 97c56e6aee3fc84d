package noc_test

import (
	"fmt"

	"mira/internal/noc"
	"mira/internal/routing"
	"mira/internal/topology"
)

func ExampleNewNetwork() {
	topo := topology.NewMesh2D(6, 6, 3.1)
	cfg := noc.Config{
		Topo: topo, Alg: routing.DOR{},
		VCs: 2, BufDepth: 8, STLTCycles: 2, Layers: 4,
		Policy: noc.AnyFree, Seed: 1,
	}
	net := noc.NewNetwork(cfg)

	var delivered *noc.Packet
	net.SetEjectHandler(func(p *noc.Packet) { delivered = p })
	if _, err := net.Enqueue(noc.Spec{Src: 0, Dst: 7, Size: 4, Class: noc.Data}); err != nil {
		panic(err)
	}
	for delivered == nil {
		net.Step()
	}
	fmt.Printf("4-flit packet over %d hops in %d cycles\n",
		delivered.Hops, delivered.EjectedAt-delivered.CreatedAt)
	// Output: 4-flit packet over 2 hops in 19 cycles
}

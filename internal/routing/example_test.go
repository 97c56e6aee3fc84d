package routing_test

import (
	"fmt"

	"mira/internal/routing"
	"mira/internal/topology"
)

func ExamplePath() {
	m := topology.NewMesh2D(6, 6, 3.1)
	src := m.MustNodeAt(topology.Coord{X: 0, Y: 0}).ID
	dst := m.MustNodeAt(topology.Coord{X: 2, Y: 1}).ID
	path, err := routing.Path(m, routing.DOR{}, src, dst)
	if err != nil {
		panic(err)
	}
	fmt.Println(path)
	// Output: [east east south]
}

func ExampleDOR() {
	m := topology.NewExpressMesh2D(6, 6, 1.58, 2)
	src := m.MustNodeAt(topology.Coord{X: 0, Y: 0}).ID
	dst := m.MustNodeAt(topology.Coord{X: 5, Y: 0}).ID
	path, err := routing.Path(m, routing.DOR{}, src, dst)
	if err != nil {
		panic(err)
	}
	fmt.Println(path)
	// Output: [east-exp east-exp east]
}

func ExampleNewWestFirst() {
	m := topology.NewMesh2D(6, 6, 3.1)
	mid := m.MustNodeAt(topology.Coord{X: 2, Y: 2}).ID
	wf, err := routing.NewWestFirst(m, []routing.LinkFault{{Src: mid, Dir: topology.East}})
	if err != nil {
		panic(err)
	}
	dst := m.MustNodeAt(topology.Coord{X: 4, Y: 2}).ID
	path, _ := routing.Path(m, wf, mid, dst)
	fmt.Println(path)
	// Output: [south east east north]
}

// Package routing implements the routing functions of the MIRA
// evaluation. DOR is the paper's rule on every fabric (§4: "X-Y
// deterministic routing algorithm in all our experiments"): the planar
// meshes, the 3DB stack along Z, 3DM-E's express channels and chiplet
// grids, whose die-to-die links are ordinary mesh edges to it.
// WestFirst is the fault-tolerant turn-model alternative.
//
// Both are minimal and deadlock-free under wormhole flow control
// without escape VCs.
package routing

import (
	"fmt"

	"mira/internal/topology"
)

// Algorithm computes, per hop, the output port a packet should take.
type Algorithm interface {
	// Name identifies the algorithm in logs and experiment output.
	Name() string
	// NextPort returns the output direction at cur for a packet headed
	// to dst. It returns topology.Local when cur == dst.
	NextPort(t *topology.Topology, cur, dst topology.NodeID) topology.Dir
}

// DOR is dimension-ordered routing: X fully, then Y, then Z. Within a
// dimension it takes the express port whenever the remaining distance
// covers the port's span (Dally's express cubes, 3DM-E §3.3), so on a
// fabric without express links it is plain X-Y(-Z) routing. Progress
// within each dimension is monotone and express links only short-cut
// it, so the channel dependency graph stays acyclic.
type DOR struct{}

// Name implements Algorithm.
func (DOR) Name() string { return "dor" }

// NextPort implements Algorithm.
func (DOR) NextPort(t *topology.Topology, cur, dst topology.NodeID) topology.Dir {
	c, d := t.Node(cur).Coord, t.Node(dst).Coord
	switch {
	case c.X < d.X:
		return toward(t, cur, topology.East, topology.EastExp, d.X-c.X)
	case c.X > d.X:
		return toward(t, cur, topology.West, topology.WestExp, c.X-d.X)
	case c.Y < d.Y:
		return toward(t, cur, topology.South, topology.SouthExp, d.Y-c.Y)
	case c.Y > d.Y:
		return toward(t, cur, topology.North, topology.NorthExp, c.Y-d.Y)
	case c.Z < d.Z:
		return topology.Up
	case c.Z > d.Z:
		return topology.Down
	}
	return topology.Local
}

// toward picks the express port exp at cur when its link exists and its
// span fits within the remaining distance dist, the normal port otherwise.
func toward(t *topology.Topology, cur topology.NodeID, normal, exp topology.Dir, dist int) topology.Dir {
	if s := t.ExpressSpan(cur, exp); s > 0 && s <= dist {
		return exp
	}
	return normal
}

// Path returns the sequence of output ports a packet takes from src to
// dst under alg, excluding the final Local ejection. It returns an error
// if the route does not make progress (a routing bug or a link missing
// from the topology) within NumNodes hops.
func Path(t *topology.Topology, alg Algorithm, src, dst topology.NodeID) ([]topology.Dir, error) {
	var path []topology.Dir
	cur := src
	for cur != dst {
		if len(path) > t.NumNodes() {
			return nil, fmt.Errorf("routing: %s loops from %d to %d", alg.Name(), src, dst)
		}
		dir := alg.NextPort(t, cur, dst)
		if dir == topology.Local {
			return nil, fmt.Errorf("routing: %s ejects early at node %d en route %d->%d", alg.Name(), cur, src, dst)
		}
		l, ok := t.OutLink(cur, dir)
		if !ok {
			return nil, fmt.Errorf("routing: %s picked missing port %v at node %d en route %d->%d", alg.Name(), dir, cur, src, dst)
		}
		path = append(path, dir)
		cur = l.Dst
	}
	return path, nil
}

// HopCount returns the number of router-to-router traversals from src to
// dst under alg. Express hops count as one traversal: that is the whole
// point of express channels (Figure 11 (d) counts hops this way).
func HopCount(t *topology.Topology, alg Algorithm, src, dst topology.NodeID) (int, error) {
	p, err := Path(t, alg, src, dst)
	return len(p), err
}

// AverageHops returns the mean hop count over all ordered pairs drawn
// from srcs x dsts, skipping src == dst pairs. With nil slices it uses
// all nodes, giving the uniform-random average of Figure 11 (d).
func AverageHops(t *topology.Topology, alg Algorithm, srcs, dsts []topology.NodeID) (float64, error) {
	if srcs == nil {
		srcs = allNodes(t)
	}
	if dsts == nil {
		dsts = allNodes(t)
	}
	var total, pairs int
	for _, s := range srcs {
		for _, d := range dsts {
			if s == d {
				continue
			}
			h, err := HopCount(t, alg, s, d)
			if err != nil {
				return 0, err
			}
			total += h
			pairs++
		}
	}
	if pairs == 0 {
		return 0, nil
	}
	return float64(total) / float64(pairs), nil
}

func allNodes(t *topology.Topology) []topology.NodeID {
	ids := make([]topology.NodeID, t.NumNodes())
	for i := range ids {
		ids[i] = topology.NodeID(i)
	}
	return ids
}

package compat

import (
	"fmt"
	"math/bits"

	"cghti/internal/artifact"
	"cghti/internal/atpg"
	"cghti/internal/netlist"
	"cghti/internal/rare"
)

// Codec versions guard the encoding layouts; bumping one invalidates
// the corresponding cached artifacts (old entries fail to decode and
// are recomputed). Graph v3 dropped the vertex-partition list and the
// partitioned adjacency: the adjacency is a present/absent flag
// followed by one bitset row per vertex.
const (
	graphCodecVersion  = 3
	cliqueCodecVersion = 1
)

// EncodeGraph serializes g to the canonical binary artifact form. The
// adjacency bitset is included when present (a cube-only graph from
// BuildCubes encodes without it); construction timings are transient
// and not preserved.
func EncodeGraph(g *Graph) []byte {
	e := artifact.NewEnc()
	e.Uvarint(graphCodecVersion)
	e.Int(len(g.InputIDs))
	for _, id := range g.InputIDs {
		e.Varint(int64(id))
	}
	rare.EncodeNodes(e, g.Nodes)
	e.Int(len(g.Cubes))
	for _, c := range g.Cubes {
		atpg.EncodeCube(e, c)
	}
	e.Int(g.Dropped)
	e.Int(g.CubesDone)
	e.Int(g.CubesTotal)
	e.Int(g.EdgeRowsDone)
	e.Int(g.EdgeRowsTotal)
	e.Bool(g.adj != nil)
	for _, row := range g.adj {
		e.Words(row)
	}
	return e.Finish()
}

// DecodeGraph reverses EncodeGraph, validating every structural
// invariant (one cube per node, every cube as wide as the input list,
// one row per vertex) and that every adjacency bit is an edge of the
// cubes, so a corrupted encoding cannot produce a graph that indexes
// out of range or mines a clique whose cubes conflict.
func DecodeGraph(data []byte) (*Graph, error) {
	d := artifact.NewDec(data)
	if v := d.Uvarint(); v != graphCodecVersion {
		return nil, fmt.Errorf("compat: graph codec version %d, want %d", v, graphCodecVersion)
	}
	g := &Graph{}
	nIn := d.Int()
	if d.Err() == nil && (nIn < 0 || nIn > len(data)) {
		return nil, fmt.Errorf("compat: graph encoding claims %d inputs", nIn)
	}
	if d.Err() == nil {
		g.InputIDs = make([]netlist.GateID, nIn)
		for i := range g.InputIDs {
			g.InputIDs[i] = netlist.GateID(d.Varint())
		}
	}
	var err error
	if g.Nodes, err = rare.DecodeNodes(d); err != nil {
		return nil, err
	}
	nCubes := d.Int()
	if d.Err() == nil && nCubes != len(g.Nodes) {
		return nil, fmt.Errorf("compat: %d cubes for %d nodes", nCubes, len(g.Nodes))
	}
	if d.Err() == nil {
		g.Cubes = make([]atpg.Cube, 0, nCubes)
		for i := 0; i < nCubes; i++ {
			c, err := atpg.DecodeCube(d)
			if err != nil {
				return nil, err
			}
			if c.Len() != nIn {
				return nil, fmt.Errorf("compat: cube %d spans %d inputs, want %d", i, c.Len(), nIn)
			}
			g.Cubes = append(g.Cubes, c)
		}
	}
	g.Dropped = d.Int()
	g.CubesDone = d.Int()
	g.CubesTotal = d.Int()
	g.EdgeRowsDone = d.Int()
	g.EdgeRowsTotal = d.Int()
	if d.Bool() && d.Err() == nil {
		v := len(g.Nodes)
		g.words = (v + 63) / 64
		g.adj = make([][]uint64, v)
		for i := range g.adj {
			row := d.Words()
			if d.Err() != nil {
				break
			}
			if len(row) != g.words {
				return nil, fmt.Errorf("compat: adjacency row %d has %d words, want %d", i, len(row), g.words)
			}
			g.adj[i] = row
		}
		if d.Err() == nil {
			if err := g.checkAdjacency(); err != nil {
				return nil, err
			}
		}
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return g, nil
}

// checkAdjacency reports the first adjacency bit that is not an edge
// of the cubes: past the vertex count, on the diagonal, or between
// vertices whose cubes conflict. A graph from an interrupted build holds
// a subset of the edges and passes.
func (g *Graph) checkAdjacency() error {
	v := len(g.Nodes)
	if v == 0 {
		return nil
	}
	colOf, cols := columnIndex(g.Cubes, g.words)
	full := make([]uint64, g.words)
	for i, row := range g.adj {
		clear(full)
		compatRow(full, i, v, g.Cubes[i], colOf, cols)
		for x, w := range row {
			extra := w &^ full[x]
			if extra == 0 {
				continue
			}
			switch j := x*64 + bits.TrailingZeros64(extra); {
			case j >= v:
				return fmt.Errorf("compat: adjacency row %d sets bit %d past %d vertices", i, j, v)
			case j == i:
				return fmt.Errorf("compat: adjacency row %d joins vertex %d to itself", i, i)
			default:
				return fmt.Errorf("compat: adjacency row %d joins vertex %d, whose cube conflicts", i, j)
			}
		}
	}
	return nil
}

// EncodeCliques serializes a mined clique list in order, preserving the
// stealth-sorted sequence the insertion stage consumes.
func EncodeCliques(cliques []Clique) []byte {
	e := artifact.NewEnc()
	e.Uvarint(cliqueCodecVersion)
	e.Int(len(cliques))
	for _, c := range cliques {
		e.Int(len(c.Vertices))
		for _, v := range c.Vertices {
			e.Int(v)
		}
		atpg.EncodeCube(e, c.Cube)
	}
	return e.Finish()
}

// DecodeCliques reverses EncodeCliques.
func DecodeCliques(data []byte) ([]Clique, error) {
	d := artifact.NewDec(data)
	if v := d.Uvarint(); v != cliqueCodecVersion {
		return nil, fmt.Errorf("compat: clique codec version %d, want %d", v, cliqueCodecVersion)
	}
	n := d.Int()
	if d.Err() == nil && (n < 0 || n > len(data)) {
		return nil, fmt.Errorf("compat: clique encoding claims %d cliques", n)
	}
	out := make([]Clique, 0, max(n, 0))
	for i := 0; i < n; i++ {
		nv := d.Int()
		if d.Err() == nil && (nv < 0 || nv > len(data)) {
			return nil, fmt.Errorf("compat: clique %d claims %d vertices", i, nv)
		}
		if d.Err() != nil {
			break
		}
		c := Clique{Vertices: make([]int, nv)}
		for j := range c.Vertices {
			c.Vertices[j] = d.Int()
		}
		var err error
		if c.Cube, err = atpg.DecodeCube(d); err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return out, nil
}

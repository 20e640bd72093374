package compat

import (
	"context"
	"testing"
)

// FuzzDecodeGraph feeds arbitrary bytes to DecodeGraph. Whatever it
// accepts must be safe to use: counting and mining the decoded
// adjacency, rebuilding the edges from the decoded cubes, and mining
// those, all without a panic; and the rebuilt graph must encode to
// bytes that decode again. The corpus seeds are a cube-only graph, a
// graph with edges, and a graph built from partitioned cubes.
func FuzzDecodeGraph(f *testing.F) {
	n, rs, g := buildGraph(f, rareCircuit, 0.3)
	cubes, err := BuildCubes(context.Background(), n, rs, BuildConfig{})
	if err != nil {
		f.Fatal(err)
	}
	_, build := socGraphFixture(f, 3000, 21)
	for _, seed := range []*Graph{cubes, g, build(BuildConfig{Partitions: 4, Workers: 2, MaxNodes: 24})} {
		f.Add(EncodeGraph(seed))
	}
	mine := MineConfig{MinSize: 2, MaxCliques: 4, Attempts: 32, Seed: 1}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := DecodeGraph(data)
		if err != nil {
			return
		}
		g.NumEdges()
		if g.adj != nil {
			g.FindCliques(mine)
		}
		if err := g.ConnectEdges(context.Background(), BuildConfig{Workers: 1}); err != nil {
			t.Fatal(err)
		}
		g.NumEdges()
		for _, c := range g.FindCliques(mine) {
			if err := g.Validate(c); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := DecodeGraph(EncodeGraph(g)); err != nil {
			t.Fatalf("rebuilt graph does not decode: %v", err)
		}
	})
}

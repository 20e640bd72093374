package compat

import (
	"reflect"
	"testing"

	"cghti/internal/gen"
	"cghti/internal/rare"
)

// socGraphFixture builds a hierarchical SoC, extracts rare nodes, and
// returns the inputs for partition-determinism tests.
func socGraphFixture(t testing.TB, gates int, seed int64) (ref *Graph, build func(cfg BuildConfig) *Graph) {
	t.Helper()
	n, err := gen.SoC(gen.SoCSpec{Gates: gates, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := rare.Extract(n, rare.Config{Vectors: 3000, Threshold: 0.2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() < 8 {
		t.Skip("too few rare nodes on this seed")
	}
	build = func(cfg BuildConfig) *Graph {
		t.Helper()
		g, err := Build(n, rs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	ref = build(BuildConfig{Workers: 1})
	return ref, build
}

// TestBuildPartitionsIdentical is the scale-path determinism contract:
// for any partition count the graph has identical vertices, cubes, and
// edge relation.
func TestBuildPartitionsIdentical(t *testing.T) {
	ref, build := socGraphFixture(t, 3000, 21)
	for _, parts := range []int{2, 6} {
		got := build(BuildConfig{Partitions: parts, Workers: 4})
		if got.NumVertices() != ref.NumVertices() {
			t.Fatalf("partitions=%d: %d vertices, want %d", parts, got.NumVertices(), ref.NumVertices())
		}
		if got.Dropped != ref.Dropped {
			t.Fatalf("partitions=%d: %d dropped, want %d", parts, got.Dropped, ref.Dropped)
		}
		for i := 0; i < ref.NumVertices(); i++ {
			if got.Nodes[i] != ref.Nodes[i] {
				t.Fatalf("partitions=%d: vertex %d = %+v, want %+v", parts, i, got.Nodes[i], ref.Nodes[i])
			}
			if !got.Cubes[i].Equal(ref.Cubes[i]) {
				t.Fatalf("partitions=%d: cube %d = %s, want %s", parts, i, got.Cubes[i], ref.Cubes[i])
			}
			for j := i + 1; j < ref.NumVertices(); j++ {
				if got.Compatible(i, j) != ref.Compatible(i, j) {
					t.Fatalf("partitions=%d: edge (%d,%d) = %v, want %v",
						parts, i, j, got.Compatible(i, j), ref.Compatible(i, j))
				}
			}
		}
		if got.NumEdges() != ref.NumEdges() {
			t.Fatalf("partitions=%d: %d edges, want %d", parts, got.NumEdges(), ref.NumEdges())
		}
	}
}

// TestPartitionedMiningIdentical runs the randomized miner and the
// exact enumerator on dense and partitioned graphs built from the same
// inputs: identical seeds must yield identical cliques.
func TestPartitionedMiningIdentical(t *testing.T) {
	ref, build := socGraphFixture(t, 3000, 21)
	got := build(BuildConfig{Partitions: 5, Workers: 4})

	mcfg := MineConfig{Seed: 77, MaxCliques: 16, Attempts: 400}
	refCl := ref.FindCliques(mcfg)
	gotCl := got.FindCliques(mcfg)
	if !reflect.DeepEqual(gotCl, refCl) {
		t.Fatalf("randomized mining differs: %d cliques vs %d", len(gotCl), len(refCl))
	}

	refEx := ref.EnumerateExact(2, 16)
	gotEx := got.EnumerateExact(2, 16)
	if !reflect.DeepEqual(gotEx, refEx) {
		t.Fatalf("exact enumeration differs: %d cliques vs %d", len(gotEx), len(refEx))
	}
}

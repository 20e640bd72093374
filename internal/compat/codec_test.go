package compat

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"cghti/internal/artifact"
	"cghti/internal/atpg"
	"cghti/internal/rare"
	"cghti/internal/sim"
)

// TestGraphCodecRoundTrip round-trips a graph built from whole-netlist
// cubes and one built from partitioned cubes.
func TestGraphCodecRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(t *testing.T) *Graph
	}{
		{"crafted", func(t *testing.T) *Graph {
			_, _, g := buildGraph(t, rareCircuit, 0.3)
			return g
		}},
		{"partitioned", func(t *testing.T) *Graph {
			_, build := socGraphFixture(t, 3000, 21)
			return build(BuildConfig{Partitions: 4, Workers: 2})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.build(t)
			if len(g.Nodes) == 0 {
				t.Fatal("test graph has no vertices")
			}
			enc := EncodeGraph(g)
			got, err := DecodeGraph(enc)
			if err != nil {
				t.Fatal(err)
			}
			// Encode-decode-encode byte equality is the stability
			// contract the cache fingerprints rely on.
			if !bytes.Equal(EncodeGraph(got), enc) {
				t.Fatal("re-encoding a decoded graph changed the bytes")
			}
			if got.NumVertices() != g.NumVertices() || got.NumEdges() != g.NumEdges() {
				t.Fatalf("decoded graph: %d vertices %d edges, want %d/%d",
					got.NumVertices(), got.NumEdges(), g.NumVertices(), g.NumEdges())
			}
			if len(got.InputIDs) != len(g.InputIDs) {
				t.Fatalf("InputIDs length %d, want %d", len(got.InputIDs), len(g.InputIDs))
			}
			for i := range g.Nodes {
				if got.Nodes[i] != g.Nodes[i] {
					t.Fatalf("node %d = %+v, want %+v", i, got.Nodes[i], g.Nodes[i])
				}
			}
			// The decoded graph must be minable: same cliques as the
			// original.
			cfg := MineConfig{MinSize: 2, MaxCliques: 16, Seed: 7}
			if orig, back := g.FindCliques(cfg), got.FindCliques(cfg); !reflect.DeepEqual(back, orig) {
				t.Fatalf("decoded graph mines %d cliques, original %d", len(back), len(orig))
			}
		})
	}
}

func TestGraphCodecCubeOnly(t *testing.T) {
	n, rs, _ := buildGraph(t, rareCircuit, 0.3)
	g, err := BuildCubes(context.Background(), n, rs, BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeGraph(EncodeGraph(g))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumVertices() != g.NumVertices() {
		t.Fatalf("vertices %d, want %d", got.NumVertices(), g.NumVertices())
	}
	if got.NumEdges() != 0 {
		t.Fatal("cube-only graph decoded with edges")
	}
}

func TestGraphCodecRejectsCorruption(t *testing.T) {
	_, _, g := buildGraph(t, rareCircuit, 0.3)
	enc := EncodeGraph(g)
	if _, err := DecodeGraph(enc[:len(enc)-3]); err == nil {
		t.Error("truncated graph decoded without error")
	}
	if _, err := DecodeGraph(append(append([]byte{}, enc...), 0x7F)); err == nil {
		t.Error("trailing bytes decoded without error")
	}
	if _, err := DecodeGraph([]byte{0x63}); err == nil {
		t.Error("version skew decoded without error")
	}
}

// TestDecodeGraphRejectsMalformed: cache and peer entries come from
// outside the process, so DecodeGraph must refuse any graph the
// downstream stages would index out of range on or mine a false clique
// from. Each case is a valid graph with one field corrupted in memory
// and then encoded.
func TestDecodeGraphRejectsMalformed(t *testing.T) {
	_, _, ref := buildGraph(t, rareCircuit, 0.3)
	v := ref.NumVertices()
	if v < 2 || v%64 == 0 {
		t.Fatalf("fixture has %d vertices; the cases need 2..63 mod 64", v)
	}
	enc := EncodeGraph(ref)
	conflictI, conflictJ := -1, -1
	for i := 0; i < v && conflictI < 0; i++ {
		for j := i + 1; j < v; j++ {
			if ref.Cubes[i].Conflicts(ref.Cubes[j]) {
				conflictI, conflictJ = i, j
				break
			}
		}
	}
	for _, tc := range []struct {
		name    string
		corrupt func(g *Graph)
	}{
		{"cube-wider-than-inputs", func(g *Graph) {
			wide := atpg.NewCube(len(g.InputIDs) + 70)
			wide.Set(len(g.InputIDs)+65, sim.V3One)
			g.Cubes[v-1] = wide
		}},
		{"row-bit-past-vertices", func(g *Graph) { g.adj[0][(v-1)/64] |= 1 << uint(v%64) }},
		{"diagonal-bit", func(g *Graph) { g.adj[1][0] |= 1 << 1 }},
		{"edge-between-conflicting-cubes", func(g *Graph) {
			if conflictI < 0 {
				t.Skip("fixture has no conflicting cube pair")
			}
			g.adj[conflictI][conflictJ/64] |= 1 << uint(conflictJ%64)
			g.adj[conflictJ][conflictI/64] |= 1 << uint(conflictI%64)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, err := DecodeGraph(enc)
			if err != nil {
				t.Fatal(err)
			}
			tc.corrupt(g)
			if _, err := DecodeGraph(EncodeGraph(g)); err == nil {
				t.Fatal("malformed graph decoded without error")
			}
		})
	}
}

// TestDecodeGraphAcceptsPartialEdges: an interrupted edge pass keeps a
// subset of the edges, which is still a valid graph.
func TestDecodeGraphAcceptsPartialEdges(t *testing.T) {
	_, _, g := buildGraph(t, rareCircuit, 0.3)
	clear(g.adj[0])
	for i := 1; i < g.NumVertices(); i++ {
		g.adj[i][0] &^= 1
	}
	if _, err := DecodeGraph(EncodeGraph(g)); err != nil {
		t.Fatal(err)
	}
}

func TestCliqueCodecRoundTrip(t *testing.T) {
	_, _, g := buildGraph(t, rareCircuit, 0.3)
	cliques := g.FindCliques(MineConfig{MinSize: 2, MaxCliques: 16, Seed: 3})
	if len(cliques) == 0 {
		t.Skip("no cliques in test graph")
	}
	g.SortByStealth(cliques)
	enc := EncodeCliques(cliques)
	got, err := DecodeCliques(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(EncodeCliques(got), enc) {
		t.Fatal("re-encoding decoded cliques changed the bytes")
	}
	if len(got) != len(cliques) {
		t.Fatalf("decoded %d cliques, want %d", len(got), len(cliques))
	}
	for i := range cliques {
		if len(got[i].Vertices) != len(cliques[i].Vertices) {
			t.Fatalf("clique %d has %d vertices, want %d", i, len(got[i].Vertices), len(cliques[i].Vertices))
		}
		for j, v := range cliques[i].Vertices {
			if got[i].Vertices[j] != v {
				t.Fatalf("clique %d vertex %d = %d, want %d", i, j, got[i].Vertices[j], v)
			}
		}
	}
}

func TestBuildCachedMatchesBuild(t *testing.T) {
	n, rs, want := buildGraph(t, rareCircuit, 0.3)
	cache := artifact.NewCache(0, 0)
	cold, err := BuildCached(context.Background(), cache, n, rs, BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := BuildCached(context.Background(), cache, n, rs, BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*Graph{cold, warm} {
		if !bytes.Equal(EncodeGraph(g), EncodeGraph(want)) {
			t.Fatal("cached build differs from direct build")
		}
	}

	// A capped (mutated) rare set keys differently: content, not pointer.
	capped := &rare.Set{
		RN1: rs.RN1, Vectors: rs.Vectors, Threshold: rs.Threshold, TotalNodes: rs.TotalNodes,
	}
	gc, err := BuildCached(context.Background(), cache, n, capped, BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if gc.NumVertices() == want.NumVertices() && len(rs.RN0) > 0 {
		t.Fatal("distinct rare-set content served the same cached graph")
	}
}

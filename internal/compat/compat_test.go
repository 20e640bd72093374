package compat

import (
	"math/rand"
	"sort"
	"testing"

	"cghti/internal/bench"
	"cghti/internal/gen"
	"cghti/internal/netlist"
	"cghti/internal/rare"
	"cghti/internal/sim"
)

// rareCircuit has several easily characterized rare nodes: deep AND/NOR
// structures over shared inputs.
const rareCircuit = `
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
INPUT(e)
INPUT(f)
OUTPUT(y1)
OUTPUT(y2)
g1 = AND(a, b, c)
g2 = AND(d, e, f)
g3 = NOR(a, d, e)
g4 = AND(b, c, f)
y1 = OR(g1, g2)
y2 = OR(g3, g4)
`

func buildGraph(t testing.TB, src string, th float64) (*netlist.Netlist, *rare.Set, *Graph) {
	t.Helper()
	n, err := bench.ParseString(src, "t")
	if err != nil {
		t.Fatal(err)
	}
	rs, err := rare.Extract(n, rare.Config{Vectors: 4000, Threshold: th, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(n, rs, BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return n, rs, g
}

func TestBuildProducesCubes(t *testing.T) {
	_, rs, g := buildGraph(t, rareCircuit, 0.2)
	if rs.Len() == 0 {
		t.Fatal("no rare nodes in the crafted circuit")
	}
	if g.NumVertices() == 0 {
		t.Fatal("no cubes generated")
	}
	if g.NumVertices()+g.Dropped != rs.Len() {
		t.Fatalf("vertices %d + dropped %d != rare %d",
			g.NumVertices(), g.Dropped, rs.Len())
	}
	for i, cube := range g.Cubes {
		if cube.CareCount() == 0 {
			t.Errorf("vertex %d has an empty cube", i)
		}
	}
}

// TestCubesProveThemselves: each vertex's cube must excite its node
// (PODEM soundness feeding into the graph).
func TestCubesProveThemselves(t *testing.T) {
	n, _, g := buildGraph(t, rareCircuit, 0.2)
	for i, node := range g.Nodes {
		in := map[netlist.GateID]sim.V3{}
		for pos, id := range g.InputIDs {
			if v := g.Cubes[i].Get(pos); v != sim.V3X {
				in[id] = v
			}
		}
		vals, err := sim.Eval3(n, in)
		if err != nil {
			t.Fatal(err)
		}
		if vals[node.ID] != sim.V3(node.RareValue) {
			t.Errorf("cube %d does not prove %s=%d",
				i, n.Gates[node.ID].Name, node.RareValue)
		}
	}
}

func TestEdgesMatchCubeConflicts(t *testing.T) {
	_, _, g := buildGraph(t, rareCircuit, 0.2)
	for i := 0; i < g.NumVertices(); i++ {
		if g.Compatible(i, i) {
			t.Errorf("self-loop at %d", i)
		}
		for j := i + 1; j < g.NumVertices(); j++ {
			want := !g.Cubes[i].Conflicts(g.Cubes[j])
			if g.Compatible(i, j) != want {
				t.Errorf("edge (%d,%d) = %v, cube conflict says %v",
					i, j, g.Compatible(i, j), want)
			}
			if g.Compatible(i, j) != g.Compatible(j, i) {
				t.Errorf("adjacency not symmetric at (%d,%d)", i, j)
			}
		}
	}
}

func TestDegreeAndEdgeCount(t *testing.T) {
	_, _, g := buildGraph(t, rareCircuit, 0.2)
	sum := 0
	for i := 0; i < g.NumVertices(); i++ {
		sum += g.Degree(i)
	}
	if sum != 2*g.NumEdges() {
		t.Fatalf("degree sum %d != 2*edges %d", sum, 2*g.NumEdges())
	}
}

// TestCliquesValidationFree is the paper's core claim: the merged cube
// of any mined clique drives every member to its rare value — proven by
// three-valued simulation, with no search.
func TestCliquesValidationFree(t *testing.T) {
	n, _, g := buildGraph(t, rareCircuit, 0.25)
	cliques := g.FindCliques(MineConfig{MinSize: 2, MaxCliques: 50, Seed: 3})
	if len(cliques) == 0 {
		t.Fatal("no cliques found")
	}
	for _, c := range cliques {
		if err := g.Validate(c); err != nil {
			t.Fatal(err)
		}
		in := map[netlist.GateID]sim.V3{}
		for pos, id := range g.InputIDs {
			if v := c.Cube.Get(pos); v != sim.V3X {
				in[id] = v
			}
		}
		vals, err := sim.Eval3(n, in)
		if err != nil {
			t.Fatal(err)
		}
		for _, node := range c.Nodes(g) {
			if vals[node.ID] != sim.V3(node.RareValue) {
				t.Fatalf("clique %v: merged cube fails to trigger %s=%d",
					c.Vertices, n.Gates[node.ID].Name, node.RareValue)
			}
		}
	}
}

func TestGreedyCliquesAreMaximal(t *testing.T) {
	_, _, g := buildGraph(t, rareCircuit, 0.25)
	cliques := g.FindCliques(MineConfig{MinSize: 2, MaxCliques: 30, Seed: 7})
	for _, c := range cliques {
		inClique := map[int]bool{}
		for _, v := range c.Vertices {
			inClique[v] = true
		}
		for u := 0; u < g.NumVertices(); u++ {
			if inClique[u] {
				continue
			}
			extends := true
			for _, v := range c.Vertices {
				if !g.Compatible(u, v) {
					extends = false
					break
				}
			}
			if extends {
				t.Fatalf("clique %v not maximal: vertex %d extends it", c.Vertices, u)
			}
		}
	}
}

func TestGreedyAgreesWithExact(t *testing.T) {
	_, _, g := buildGraph(t, rareCircuit, 0.25)
	exact := g.EnumerateExact(2, 0)
	if len(exact) == 0 {
		t.Skip("graph has no cliques of size 2 at this threshold")
	}
	exactSet := map[string]bool{}
	for _, c := range exact {
		exactSet[cliqueKey(c.Vertices)] = true
	}
	greedy := g.FindCliques(MineConfig{MinSize: 2, MaxCliques: 100, Seed: 11})
	for _, c := range greedy {
		if !exactSet[cliqueKey(c.Vertices)] {
			t.Fatalf("greedy clique %v not in the exact maximal set", c.Vertices)
		}
	}
}

func TestCliquesDistinct(t *testing.T) {
	_, _, g := buildGraph(t, rareCircuit, 0.25)
	cliques := g.FindCliques(MineConfig{MinSize: 2, MaxCliques: 100, Seed: 5})
	seen := map[string]bool{}
	for _, c := range cliques {
		if !sort.IntsAreSorted(c.Vertices) {
			t.Fatal("clique vertices not sorted")
		}
		k := cliqueKey(c.Vertices)
		if seen[k] {
			t.Fatalf("duplicate clique %v", c.Vertices)
		}
		seen[k] = true
	}
}

func TestMinSizeRespected(t *testing.T) {
	_, _, g := buildGraph(t, rareCircuit, 0.25)
	for _, c := range g.FindCliques(MineConfig{MinSize: 3, MaxCliques: 50, Seed: 2}) {
		if len(c.Vertices) < 3 {
			t.Fatalf("clique %v smaller than MinSize", c.Vertices)
		}
	}
}

func TestMaxCliquesRespected(t *testing.T) {
	_, _, g := buildGraph(t, rareCircuit, 0.3)
	got := g.FindCliques(MineConfig{MinSize: 1, MaxCliques: 2, Seed: 2})
	if len(got) > 2 {
		t.Fatalf("got %d cliques, cap was 2", len(got))
	}
}

func TestEmptyGraph(t *testing.T) {
	n, err := bench.ParseString("INPUT(a)\nOUTPUT(y)\ny = BUFF(a)\n", "buf")
	if err != nil {
		t.Fatal(err)
	}
	rs, err := rare.Extract(n, rare.Config{Vectors: 1000, Threshold: 0.2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(n, rs, BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if got := g.FindCliques(MineConfig{MinSize: 1, MaxCliques: 5, Seed: 1}); got != nil {
		t.Fatalf("cliques from empty graph: %v", got)
	}
	if got := g.EnumerateExact(1, 0); got != nil {
		t.Fatalf("exact cliques from empty graph: %v", got)
	}
}

func TestMaxNodesCapKeepsRarest(t *testing.T) {
	n, err := bench.ParseString(rareCircuit, "t")
	if err != nil {
		t.Fatal(err)
	}
	rs, err := rare.Extract(n, rare.Config{Vectors: 4000, Threshold: 0.3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() < 3 {
		t.Skip("not enough rare nodes to exercise the cap")
	}
	g, err := Build(n, rs, BuildConfig{MaxNodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices()+g.Dropped > 2 {
		t.Fatalf("cap ignored: %d vertices + %d dropped", g.NumVertices(), g.Dropped)
	}
}

// TestOnGeneratedCircuit runs the whole graph flow on a gen.Random
// circuit, asserting the validation-free property at scale.
func TestOnGeneratedCircuit(t *testing.T) {
	n, err := gen.Random(gen.Spec{Name: "r", PIs: 16, POs: 8, Gates: 250, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := rare.Extract(n, rare.Config{Vectors: 4000, Threshold: 0.2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() == 0 {
		t.Fatal("generated circuit has no rare nodes at θ=0.2")
	}
	g, err := Build(n, rs, BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cliques := g.FindCliques(MineConfig{MinSize: 2, MaxCliques: 20, Seed: 3})
	if len(cliques) == 0 {
		t.Skip("no size-2 cliques on this seed")
	}
	for _, c := range cliques {
		in := map[netlist.GateID]sim.V3{}
		for pos, id := range g.InputIDs {
			if v := c.Cube.Get(pos); v != sim.V3X {
				in[id] = v
			}
		}
		vals, err := sim.Eval3(n, in)
		if err != nil {
			t.Fatal(err)
		}
		for _, node := range c.Nodes(g) {
			if vals[node.ID] != sim.V3(node.RareValue) {
				t.Fatalf("validation-free property violated on generated circuit")
			}
		}
	}
}

func TestRandomSetBitUniformIsh(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	bits := []uint64{0b1010, 0, 1 << 63}
	counts := map[int]int{}
	for i := 0; i < 3000; i++ {
		b, ok := randomSetBit(bits, rng)
		if !ok {
			t.Fatal("no set bit found")
		}
		counts[b]++
	}
	if len(counts) != 3 {
		t.Fatalf("picked %d distinct bits, want 3 (%v)", len(counts), counts)
	}
	for b, c := range counts {
		if c < 700 {
			t.Errorf("bit %d picked only %d/3000 times", b, c)
		}
	}
	if _, ok := randomSetBit([]uint64{0, 0}, rng); ok {
		t.Fatal("randomSetBit found a bit in an empty set")
	}
}

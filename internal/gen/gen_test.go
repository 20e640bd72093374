package gen

import (
	"math/rand"
	"testing"

	"cghti/internal/netlist"
	"cghti/internal/sim"
)

func TestC17Exact(t *testing.T) {
	n := C17()
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	s := n.ComputeStats()
	if s.PIs != 5 || s.POs != 2 || s.Cells != 6 {
		t.Fatalf("c17 stats wrong: %v", s)
	}
	// Every cell is a NAND in c17.
	if s.ByType[netlist.Nand] != 6 {
		t.Fatalf("c17 has %d NANDs, want 6", s.ByType[netlist.Nand])
	}
}

func TestS27Exact(t *testing.T) {
	n := S27()
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	s := n.ComputeStats()
	if s.PIs != 4 || s.POs != 1 || s.DFFs != 3 {
		t.Fatalf("s27 stats wrong: %v", s)
	}
	if s.Cells != 13 { // 10 logic gates + 3 DFFs
		t.Fatalf("s27 cells = %d, want 13", s.Cells)
	}
}

func TestMultiplierCorrectness(t *testing.T) {
	// 4x4 multiplier: exhaustive check of all 256 products.
	n := Multiplier(4)
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	for x := 0; x < 16; x++ {
		for y := 0; y < 16; y++ {
			in := map[netlist.GateID]uint8{}
			for i := 0; i < 4; i++ {
				in[n.MustLookup("a"+itoa(i))] = uint8(x >> uint(i) & 1)
				in[n.MustLookup("b"+itoa(i))] = uint8(y >> uint(i) & 1)
			}
			vals, err := sim.Eval(n, in)
			if err != nil {
				t.Fatal(err)
			}
			got := 0
			for k := 0; k < 8; k++ {
				if vals[n.MustLookup("p"+itoa(k))] == 1 {
					got |= 1 << uint(k)
				}
			}
			if got != x*y {
				t.Fatalf("%d * %d = %d, circuit says %d", x, y, x*y, got)
			}
		}
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [8]byte
	p := len(b)
	for i > 0 {
		p--
		b[p] = byte('0' + i%10)
		i /= 10
	}
	return string(b[p:])
}

func TestMultiplier16Shape(t *testing.T) {
	n := Multiplier(16)
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	s := n.ComputeStats()
	if s.PIs != 32 || s.POs != 32 {
		t.Fatalf("16x16 multiplier: %d PI / %d PO, want 32/32", s.PIs, s.POs)
	}
	// c6288 has 2416 gates; the XOR/AND/OR array form lands in the same
	// class (within ~25%).
	if s.Cells < 1800 || s.Cells > 3100 {
		t.Fatalf("16x16 multiplier cells = %d, want c6288-class (~2400)", s.Cells)
	}
	if s.Depth < 20 {
		t.Fatalf("16x16 multiplier depth = %d, suspiciously shallow", s.Depth)
	}
}

func TestMultiplierRandomVsArithmetic(t *testing.T) {
	n := Multiplier(8)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		x, y := rng.Intn(256), rng.Intn(256)
		in := map[netlist.GateID]uint8{}
		for i := 0; i < 8; i++ {
			in[n.MustLookup("a"+itoa(i))] = uint8(x >> uint(i) & 1)
			in[n.MustLookup("b"+itoa(i))] = uint8(y >> uint(i) & 1)
		}
		vals, err := sim.Eval(n, in)
		if err != nil {
			t.Fatal(err)
		}
		got := 0
		for k := 0; k < 16; k++ {
			if vals[n.MustLookup("p"+itoa(k))] == 1 {
				got |= 1 << uint(k)
			}
		}
		if got != x*y {
			t.Fatalf("%d * %d: got %d", x, y, got)
		}
	}
}

func TestRandomSpecShape(t *testing.T) {
	n, err := Random(Spec{Name: "r1", PIs: 20, POs: 10, DFFs: 5, Gates: 300, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	s := n.ComputeStats()
	if s.PIs != 20 || s.DFFs != 5 {
		t.Fatalf("shape mismatch: %v", s)
	}
	if s.POs < 10 {
		t.Fatalf("POs = %d, want >= 10", s.POs)
	}
	if s.Cells != 300+5 {
		t.Fatalf("cells = %d, want 305", s.Cells)
	}
	if s.Depth < 5 {
		t.Fatalf("depth = %d, generator produced a too-flat circuit", s.Depth)
	}
}

func TestRandomDeterministic(t *testing.T) {
	spec := Spec{Name: "d", PIs: 10, POs: 5, Gates: 100, Seed: 7}
	a, err := Random(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Random(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumGates() != b.NumGates() {
		t.Fatal("same seed, different gate count")
	}
	for i := range a.Gates {
		ga, gb := &a.Gates[i], &b.Gates[i]
		if ga.Name != gb.Name || ga.Type != gb.Type || len(ga.Fanin) != len(gb.Fanin) {
			t.Fatalf("gate %d differs between identical specs", i)
		}
		for j := range ga.Fanin {
			if ga.Fanin[j] != gb.Fanin[j] {
				t.Fatalf("gate %d fanin %d differs", i, j)
			}
		}
	}
}

func TestRandomNoDanglingLogic(t *testing.T) {
	n, err := Random(Spec{Name: "d2", PIs: 15, POs: 8, DFFs: 4, Gates: 200, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	for i := range n.Gates {
		g := &n.Gates[i]
		if g.Type == netlist.Input || g.Type == netlist.DFF {
			continue
		}
		if len(g.Fanout) == 0 && !g.IsPO {
			t.Fatalf("gate %s dangles (no fanout, not a PO)", g.Name)
		}
	}
}

func TestRandomSpecErrors(t *testing.T) {
	if _, err := Random(Spec{Gates: 10}); err == nil {
		t.Error("Random accepted 0 PIs")
	}
	if _, err := Random(Spec{PIs: 3}); err == nil {
		t.Error("Random accepted 0 gates")
	}
	// More POs than gates used to loop forever looking for another
	// logic net to promote.
	if _, err := Random(Spec{PIs: 3, POs: 4, Gates: 3}); err == nil {
		t.Error("Random accepted more POs than gates")
	}
}

// TestRandomNarrowSources: a gate wider than the nets created so far
// takes every one of them instead of looping for a distinct fanin
// that does not exist.
func TestRandomNarrowSources(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		n, err := Random(Spec{PIs: 1, POs: 1, Gates: 6, MaxFanin: 4, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestBenchmarkCatalog(t *testing.T) {
	for _, name := range []string{"c17", "s27", "c432", "s298"} {
		n, err := Benchmark(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := n.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n.Name != name {
			t.Fatalf("circuit name %q, want %q", n.Name, name)
		}
	}
	if _, err := Benchmark("c9999"); err == nil {
		t.Error("Benchmark accepted an unknown name")
	}
}

func TestBenchmarkMatchesPublishedShape(t *testing.T) {
	if testing.Short() {
		t.Skip("large circuits in -short mode")
	}
	for name, p := range catalog {
		n, err := Benchmark(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		s := n.ComputeStats()
		if s.PIs != p.pis {
			t.Errorf("%s: %d PIs, want %d", name, s.PIs, p.pis)
		}
		if s.DFFs != p.dffs {
			t.Errorf("%s: %d DFFs, want %d", name, s.DFFs, p.dffs)
		}
		if p.mult == 0 && s.POs < p.pos {
			t.Errorf("%s: %d POs, want >= %d", name, s.POs, p.pos)
		}
		if p.mult == 0 {
			wantCells := p.gates + p.dffs
			if s.Cells != wantCells {
				t.Errorf("%s: %d cells, want %d", name, s.Cells, wantCells)
			}
		}
	}
}

func TestPaperCircuitsAllResolvable(t *testing.T) {
	if testing.Short() {
		t.Skip("large circuits in -short mode")
	}
	for _, name := range PaperCircuits() {
		if _, err := Benchmark(name); err != nil {
			t.Errorf("paper circuit %s: %v", name, err)
		}
	}
}

func TestNamesSortedAndComplete(t *testing.T) {
	names := Names()
	if len(names) != len(catalog)+2 {
		t.Fatalf("Names() returned %d entries, want %d", len(names), len(catalog)+2)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names() not sorted: %q >= %q", names[i-1], names[i])
		}
	}
}

func TestSeedForStable(t *testing.T) {
	if seedFor("c2670") != seedFor("c2670") {
		t.Fatal("seedFor not deterministic")
	}
	if seedFor("c2670") == seedFor("c3540") {
		t.Fatal("seedFor collides on different names")
	}
}

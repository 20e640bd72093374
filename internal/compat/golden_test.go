package compat

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cghti/internal/atpg"
	"cghti/internal/gen"
	"cghti/internal/rare"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/catalog.golden")

// goldenCircuits are the catalog circuits whose graphs are pinned: the
// combinational series c432…c7552 and the sequential s-series.
var goldenCircuits = []string{
	"c432", "c880", "c1355", "c1908", "c2670", "c3540", "c5315", "c6288", "c7552",
	"s298", "s344", "s1423", "s5378", "s9234", "s13207", "s15850", "s35932",
}

// graphDigests hashes the vertices and cubes BuildCubes produced and,
// separately, the adjacency rows ConnectEdges produced.
func graphDigests(g *Graph) (cubes, adj string) {
	hc := sha256.New()
	var enc [8]byte
	for i, c := range g.Cubes {
		fmt.Fprintf(hc, "%d/%d %s\n", g.Nodes[i].ID, g.Nodes[i].RareValue, c)
	}
	fmt.Fprintf(hc, "dropped %d\n", g.Dropped)
	ha := sha256.New()
	for _, row := range g.adj {
		for _, w := range row {
			binary.LittleEndian.PutUint64(enc[:], w)
			ha.Write(enc[:])
		}
	}
	return hex.EncodeToString(hc.Sum(nil))[:32], hex.EncodeToString(ha.Sum(nil))[:32]
}

// TestCatalogGraphGolden pins cube generation and edge building on the
// catalog: the cubes (in rarity order, with the rare node each excites)
// and every adjacency row must hash to the digests recorded in
// testdata/catalog.golden. Any change to PODEM's decisions or to the
// compatibility test shows up here. Run with -update only after a
// deliberate change of behaviour.
func TestCatalogGraphGolden(t *testing.T) {
	path := filepath.Join("testdata", "catalog.golden")
	want := map[string]string{}
	if !*updateGolden {
		f, err := os.Open(path)
		if err != nil {
			t.Fatalf("%v (run with -update to create)", err)
		}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
				name, _, _ := strings.Cut(line, " ")
				want[name] = line
			}
		}
		f.Close()
	}
	var out strings.Builder
	out.WriteString("# circuit vertices edges cubes-digest adjacency-digest\n")
	for _, name := range goldenCircuits {
		n, err := gen.Benchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := rare.Extract(n, rare.Config{Vectors: rare.DefaultVectors, Threshold: rare.DefaultThreshold, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		cfg := BuildConfig{MaxBacktracks: atpg.DefaultMaxBacktracks, Workers: 2}
		g, err := BuildCubes(context.Background(), n, rs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.ConnectEdges(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
		cubes, adj := graphDigests(g)
		line := fmt.Sprintf("%s %d %d %s %s", name, g.NumVertices(), g.NumEdges(), cubes, adj)
		out.WriteString(line + "\n")
		if !*updateGolden && want[name] != line {
			t.Errorf("%s:\n got %s\nwant %s", name, line, want[name])
		}
	}
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

package compat

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"cghti/internal/atpg"
	"cghti/internal/chaos"
	"cghti/internal/rare"
	"cghti/internal/sim"
	"cghti/internal/stage"
)

// randomCubeGraph returns a cube-only graph of v random cubes over
// width inputs: a few care bits each, drawn from a narrow window so
// that both compatible and conflicting pairs are common, and every
// tenth cube all-X.
func randomCubeGraph(rng *rand.Rand, v, width int) *Graph {
	g := &Graph{Nodes: make([]rare.Node, v), Cubes: make([]atpg.Cube, v)}
	for i := range g.Cubes {
		c := atpg.NewCube(width)
		if i%10 != 9 {
			lo := rng.Intn(width / 2)
			for k := 1 + rng.Intn(8); k > 0; k-- {
				c.Set(lo+rng.Intn(width/2), sim.V3(rng.Intn(2)))
			}
		}
		g.Cubes[i] = c
	}
	return g
}

// TestColumnEdgesMatchPairwise: the column-index kernel's adjacency is
// exactly the pairwise Conflicts relation, for any worker count.
func TestColumnEdgesMatchPairwise(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, v := range []int{1, 2, 63, 64, 65, 200} {
		for _, workers := range []int{1, 2, 8} {
			g := randomCubeGraph(rng, v, 150)
			if err := g.ConnectEdges(context.Background(), BuildConfig{Workers: workers}); err != nil {
				t.Fatal(err)
			}
			if want := max(v-1, 0); g.EdgeRowsDone != want || g.EdgeRowsTotal != want {
				t.Fatalf("v=%d workers=%d: rows %d/%d, want %d/%d", v, workers, g.EdgeRowsDone, g.EdgeRowsTotal, want, want)
			}
			for i := 0; i < v; i++ {
				if g.Compatible(i, i) {
					t.Fatalf("v=%d workers=%d: self edge at %d", v, workers, i)
				}
				for j := 0; j < v; j++ {
					if i != j && g.Compatible(i, j) == g.Cubes[i].Conflicts(g.Cubes[j]) {
						t.Fatalf("v=%d workers=%d: edge (%d,%d) = %v, cubes %s / %s",
							v, workers, i, j, g.Compatible(i, j), g.Cubes[i], g.Cubes[j])
					}
				}
			}
			// No bit past the last vertex.
			if v%64 != 0 {
				for i := 0; i < v; i++ {
					if g.adj[i][len(g.adj[i])-1]>>uint(v%64) != 0 {
						t.Fatalf("v=%d workers=%d: row %d has bits past vertex %d", v, workers, i, v-1)
					}
				}
			}
		}
	}
}

// checkPartialEdges verifies the interrupted-build contract: the
// adjacency is symmetric, every edge is a real compatibility, and each
// row's upper triangle (j > i) is either all of row i's compatibilities
// (a completed row) or empty — so every edge belongs to a completed
// row. It returns the number of rows whose upper triangle is non-empty.
func checkPartialEdges(t *testing.T, g *Graph) int {
	t.Helper()
	v := g.NumVertices()
	full := 0
	for i := 0; i < v; i++ {
		var got, want int
		for j := 0; j < v; j++ {
			if g.Compatible(i, j) != g.Compatible(j, i) {
				t.Fatalf("asymmetric edge (%d,%d)", i, j)
			}
			if g.Compatible(i, j) && (i == j || g.Cubes[i].Conflicts(g.Cubes[j])) {
				t.Fatalf("edge (%d,%d) is not a compatibility", i, j)
			}
			if j > i {
				if g.Compatible(i, j) {
					got++
				}
				if !g.Cubes[i].Conflicts(g.Cubes[j]) {
					want++
				}
			}
		}
		if got != 0 && got != want {
			t.Fatalf("row %d holds %d of its %d upper-triangle edges: a partial row", i, got, want)
		}
		if got != 0 {
			full++
		}
	}
	return full
}

// TestColumnEdgesInterrupted pins the partial-graph contract of an
// interrupted edge build, for a serial build stopped by an injected
// error and a parallel one stopped by a deadline.
func TestColumnEdgesInterrupted(t *testing.T) {
	t.Run("serial", func(t *testing.T) {
		chaos.Install(chaos.Spec{Stage: stage.GraphEdges, Worker: chaos.AnyWorker, Kind: chaos.Error, OnHit: 7})
		defer chaos.Uninstall()
		g := randomCubeGraph(rand.New(rand.NewSource(5)), 120, 150)
		err := g.ConnectEdges(context.Background(), BuildConfig{Workers: 1})
		var inj *chaos.Injected
		if !errors.As(err, &inj) {
			t.Fatalf("err = %v, want the injected error", err)
		}
		// Hits 1..6 each precede one row: rows 0..5 are complete.
		if g.EdgeRowsDone != 6 {
			t.Fatalf("EdgeRowsDone = %d, want 6", g.EdgeRowsDone)
		}
		if full := checkPartialEdges(t, g); full > 6 {
			t.Fatalf("%d rows hold edges, only 6 completed", full)
		}
		for i := 0; i < 6; i++ {
			for j := i + 1; j < g.NumVertices(); j++ {
				if g.Compatible(i, j) == g.Cubes[i].Conflicts(g.Cubes[j]) {
					t.Fatalf("completed row %d: edge to %d wrong", i, j)
				}
			}
		}
	})
	t.Run("parallel", func(t *testing.T) {
		chaos.Install(chaos.Spec{Stage: stage.GraphEdges, Worker: chaos.AnyWorker, Kind: chaos.Delay, Delay: time.Millisecond})
		defer chaos.Uninstall()
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		defer cancel()
		g := randomCubeGraph(rand.New(rand.NewSource(6)), 400, 150)
		err := g.ConnectEdges(ctx, BuildConfig{Workers: 8})
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want a deadline", err)
		}
		if g.EdgeRowsDone >= g.EdgeRowsTotal {
			t.Fatalf("rows %d/%d: the build was not interrupted", g.EdgeRowsDone, g.EdgeRowsTotal)
		}
		if full := checkPartialEdges(t, g); full > g.EdgeRowsDone {
			t.Fatalf("%d rows hold edges, only %d completed", full, g.EdgeRowsDone)
		}
	})
}

package compat

import (
	"context"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"cghti/internal/atpg"
	"cghti/internal/chaos"
	"cghti/internal/netlist"
	"cghti/internal/obs"
	"cghti/internal/rare"
	"cghti/internal/sim"
	"cghti/internal/stage"
)

// buildCubesParallel runs PODEM justification for the candidates over a
// worker pool. Results are identical to the serial path for any worker
// count: cubes are collected in candidate (rarity) order, and the
// MaxNodes cutoff is the index of the MaxNodes-th success in that order,
// exactly as the serial loop would have stopped.
//
// Each worker runs under obs.Guard, so a panic inside PODEM surfaces as
// a *obs.StageError instead of killing the process. On cancellation or
// a worker error the batches completed so far are still collected into
// the graph (partial result) and the error is returned.
func (g *Graph) buildCubesParallel(ctx context.Context, n *netlist.Netlist, candidates []rare.Node, cfg BuildConfig, workers int) error {
	type outcome struct {
		cube atpg.Cube
		ok   bool
	}
	results := make([]outcome, len(candidates))

	// Process in batches so a MaxNodes cutoff does not pay for the whole
	// candidate list.
	batch := workers * 32
	if cfg.MaxNodes <= 0 {
		batch = len(candidates)
	}
	if batch == 0 {
		return nil
	}

	met := metersCtx(ctx)
	var runErr error
	var errOnce sync.Once
	setErr := func(err error) {
		if err != nil {
			errOnce.Do(func() { runErr = err })
		}
	}
	ctxDone := ctx.Done()
	processed := 0
	for processed < len(candidates) {
		select {
		case <-ctxDone:
			setErr(ctx.Err())
		default:
		}
		if runErr != nil {
			break
		}
		hi := processed + batch
		if hi > len(candidates) {
			hi = len(candidates)
		}
		var wg sync.WaitGroup
		next := make(chan int, hi-processed)
		for i := processed; i < hi; i++ {
			next <- i
		}
		close(next)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				setErr(obs.Guard(stage.CubeGen, w, func() error {
					eng, err := atpg.NewEngine(n)
					if err != nil {
						return err
					}
					eng.SetRegistry(obs.FromContext(ctx))
					if cfg.MaxBacktracks > 0 {
						eng.MaxBacktracks = cfg.MaxBacktracks
					}
					for i := range next {
						select {
						case <-ctxDone:
							return ctx.Err()
						default:
						}
						if err := chaos.Hit(stage.CubeGen, w); err != nil {
							return err
						}
						node := candidates[i]
						cube, res := eng.Justify(node.ID, node.RareValue)
						results[i] = outcome{cube: cube, ok: res == atpg.Success}
					}
					return nil
				}))
			}(w)
		}
		wg.Wait()
		if runErr != nil {
			// The interrupted batch is discarded wholesale: some of its
			// results may be filled and some not, and collecting a
			// partially filled batch would misreport misses as PODEM
			// drops.
			break
		}
		processed = hi
		met.workerBatches.Inc()
		if cfg.Progress != nil {
			cfg.Progress(processed, len(candidates))
		}
		if cfg.MaxNodes > 0 {
			successes := 0
			for i := 0; i < processed; i++ {
				if results[i].ok {
					successes++
				}
			}
			if successes >= cfg.MaxNodes {
				break
			}
		}
	}

	// Collect in candidate order up to the cutoff the serial loop would
	// have used.
	g.CubesDone = processed
	for i := 0; i < processed; i++ {
		if cfg.MaxNodes > 0 && len(g.Nodes) >= cfg.MaxNodes {
			break
		}
		if !results[i].ok {
			g.Dropped++
			continue
		}
		g.Nodes = append(g.Nodes, candidates[i])
		g.Cubes = append(g.Cubes, results[i].cube)
	}
	return runErr
}

// DefaultWorkers reports the worker count used when BuildConfig.Workers
// is zero.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// buildEdges fills the dense adjacency from a column index of the
// cubes: for every input position some cube cares about, one vertex
// bitset of the cubes with 1 there and one of the cubes with 0 there.
// Vertex i conflicts with exactly the union of the opposing columns
// over its own care bits, so row i is the complement of that union —
// Σ care bits × ⌈V/64⌉ word operations instead of V²/2 cube
// comparisons. The index takes 2 × (distinct care positions) × ⌈V/64⌉
// words.
//
// Workers claim rows from an atomic cursor and write them in place;
// rows are disjoint, and the row for vertex i depends only on the
// cubes, so the adjacency is identical for any worker count. Workers
// run under obs.Guard and check ctx per row. On interruption only the
// upper triangles (j > i) of completed rows are kept and then mirrored:
// the graph holds exactly the edges of the rows done — every edge
// recorded is an edge verified — and the error is returned.
func (g *Graph) buildEdges(ctx context.Context, workers int) error {
	v := len(g.Nodes)
	if v < 2 {
		return nil
	}
	words := g.words
	colOf, cols := columnIndex(g.Cubes, words)

	done := make([]bool, v)
	var cursor atomic.Int64
	var runErr error
	var errOnce sync.Once
	setErr := func(err error) {
		if err != nil {
			errOnce.Do(func() { runErr = err })
		}
	}
	ctxDone := ctx.Done()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			setErr(obs.Guard(stage.GraphEdges, w, func() error {
				for {
					select {
					case <-ctxDone:
						return ctx.Err()
					default:
					}
					if err := chaos.Hit(stage.GraphEdges, w); err != nil {
						return err
					}
					i := int(cursor.Add(1)) - 1
					if i >= v {
						return nil
					}
					compatRow(g.adj[i], i, v, g.Cubes[i], colOf, cols)
					done[i] = true
				}
			}))
		}(w)
	}
	wg.Wait()

	rowsDone := 0
	for i := 0; i < v-1; i++ {
		if done[i] {
			rowsDone++
		}
	}
	g.EdgeRowsDone = rowsDone
	if rowsDone == v-1 && done[v-1] {
		return runErr // every row complete: already symmetric
	}
	for i, row := range g.adj {
		if !done[i] {
			clear(row)
			continue
		}
		// Keep j > i only.
		clear(row[:i/64])
		row[i/64] &^= 1<<uint(i%64+1) - 1
	}
	for i, row := range g.adj {
		// Rows below i have already mirrored into row i's lower
		// triangle; only its upper triangle is its own.
		for x := i / 64; x < words; x++ {
			word := row[x]
			if x == i/64 {
				word &^= 1<<uint(i%64+1) - 1
			}
			for word != 0 {
				j := x*64 + bits.TrailingZeros64(word)
				g.adj[j][i/64] |= 1 << uint(i%64)
				word &= word - 1
			}
		}
	}
	return runErr
}

// columnIndex builds the per-position vertex bitsets of buildEdges.
// colOf maps an input position to its column pair k (-1 if no cube
// cares there); cols[2k] is the bitset of cubes with 0 at that position
// and cols[2k+1] the bitset of cubes with 1, each words long, in one
// slab.
func columnIndex(cubes []atpg.Cube, words int) (colOf []int32, cols []uint64) {
	colOf = make([]int32, cubes[0].Len())
	for p := range colOf {
		colOf[p] = -1
	}
	k := int32(0)
	for _, c := range cubes {
		c.ForEachCare(func(p int, _ sim.V3) {
			if colOf[p] < 0 {
				colOf[p] = k
				k++
			}
		})
	}
	cols = make([]uint64, 2*int(k)*words)
	for i, c := range cubes {
		c.ForEachCare(func(p int, val sim.V3) {
			k := 2 * int(colOf[p])
			if val == sim.V3One {
				k++
			}
			cols[k*words+i/64] |= 1 << uint(i%64)
		})
	}
	return colOf, cols
}

// compatRow writes vertex i's complete adjacency row into the zeroed
// row: the complement of the columns opposing the cube's care bits,
// masked to the v vertices and without i itself.
func compatRow(row []uint64, i, v int, cube atpg.Cube, colOf []int32, cols []uint64) {
	words := len(row)
	cube.ForEachCare(func(p int, val sim.V3) {
		// The opposing column: cubes with 0 where i has 1, and vice
		// versa.
		k := 2 * int(colOf[p])
		if val == sim.V3Zero {
			k++
		}
		for x, c := range cols[k*words : (k+1)*words] {
			row[x] |= c
		}
	})
	for x := range row {
		row[x] = ^row[x]
	}
	if r := v % 64; r != 0 {
		row[words-1] &= 1<<uint(r) - 1
	}
	row[i/64] &^= 1 << uint(i%64)
}

package compat

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"cghti/internal/atpg"
	"cghti/internal/chaos"
	"cghti/internal/netlist"
	"cghti/internal/obs"
	"cghti/internal/part"
	"cghti/internal/rare"
	"cghti/internal/sim"
	"cghti/internal/stage"
)

// This file is the BuildConfig.Partitions > 1 path of cube generation
// — the scale path for SoC-sized netlists. Each rare node is justified
// inside the TFI-closed sub-netlist of the partition that owns it.
// PODEM's justify mode is TFI-local (the objective never leaves the
// target's fanin cone, and the SCOAP controllabilities backtrace
// consults are forward measures over that same cone), so the
// per-partition cube — remapped from the sub-netlist's input positions
// to the global CombInputs coordinate system — is bit-for-bit the cube
// the whole-netlist engine would have produced. Block-sized engines
// also make construction cheap: engine setup is linear in the
// sub-netlist, not the SoC. Edges are built by the same column kernel
// (buildEdges) whatever the partition count.

// buildCubesPartitioned justifies every candidate inside its owning
// partition's sub-netlist. It mirrors buildCubesParallel's batch
// structure — rarity-ordered batches of workers×32 candidates when
// MaxNodes caps the vertex count, so a cap never pays for the whole
// candidate list — but within a batch the work unit is the partition:
// one worker owns all of a partition's batch candidates, reusing that
// partition's engine (built lazily on first touch and kept across
// batches; the batch join is the cross-batch happens-before). Results
// are identical to the serial path for any partition and worker count:
// cubes are collected in candidate order with the same MaxNodes cutoff,
// and an interrupted batch is discarded wholesale (collecting a
// partially filled batch would misreport misses as PODEM drops) while
// completed batches still land in the graph as a partial result.
func (g *Graph) buildCubesPartitioned(ctx context.Context, n *netlist.Netlist, candidates []rare.Node, cfg BuildConfig, workers int) error {
	if err := n.Levelize(); err != nil {
		return err
	}
	c := netlist.CompactOf(n)
	plan, err := part.Build(c, cfg.Partitions)
	if err != nil {
		return err
	}

	// Global cube coordinate of each input gate.
	globalPos := make([]int32, c.NumGates())
	for i := range globalPos {
		globalPos[i] = -1
	}
	for i, id := range g.InputIDs {
		globalPos[id] = int32(i)
	}

	type outcome struct {
		cube atpg.Cube
		ok   bool
	}
	results := make([]outcome, len(candidates))

	batch := workers * 32
	if cfg.MaxNodes <= 0 {
		batch = len(candidates)
	}
	if batch == 0 {
		return nil
	}

	// Per-partition engines and sub→global input position maps, built
	// lazily on a partition's first batch appearance and reused for the
	// rest of the run. Within a batch exactly one worker touches a
	// partition; across batches the wg.Wait join publishes the state.
	engines := make([]*atpg.Engine, plan.Parts)
	posMaps := make([][]int32, plan.Parts)
	engineFor := func(ctx context.Context, p int) (*atpg.Engine, []int32, error) {
		if engines[p] != nil {
			return engines[p], posMaps[p], nil
		}
		s := plan.Subs[p]
		sn, err := s.C.ToNetlist()
		if err != nil {
			return nil, nil, err
		}
		eng, err := atpg.NewEngine(sn)
		if err != nil {
			return nil, nil, err
		}
		eng.SetRegistry(obs.FromContext(ctx))
		if cfg.MaxBacktracks > 0 {
			eng.MaxBacktracks = cfg.MaxBacktracks
		}
		subIn := eng.InputIDs()
		posMap := make([]int32, len(subIn))
		for k, li := range subIn {
			posMap[k] = globalPos[s.ToGlobal[li]]
		}
		engines[p], posMaps[p] = eng, posMap
		return eng, posMap, nil
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
	byPart := make([][]int, plan.Parts)
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
		// Group this batch's candidates by owning partition, ascending
		// candidate order within each.
		var active []int32
		for i := processed; i < hi; i++ {
			p := plan.Owner[candidates[i].ID]
			if len(byPart[p]) == 0 {
				active = append(active, p)
			}
			byPart[p] = append(byPart[p], i)
		}
		var cursor atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < min(workers, len(active)); w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				setErr(obs.Guard(stage.CubeGen, w, func() error {
					for {
						a := int(cursor.Add(1)) - 1
						if a >= len(active) {
							return nil
						}
						p := int(active[a])
						s := plan.Subs[p]
						eng, posMap, err := engineFor(ctx, p)
						if err != nil {
							return err
						}
						for _, ci := range byPart[p] {
							select {
							case <-ctxDone:
								return ctx.Err()
							default:
							}
							if err := chaos.Hit(stage.CubeGen, w); err != nil {
								return err
							}
							node := candidates[ci]
							li, ok := s.Local(node.ID)
							if !ok {
								return fmt.Errorf("compat: partition %d lacks its owned node %d", p, node.ID)
							}
							cube, res := eng.Justify(li, node.RareValue)
							if res != atpg.Success {
								continue
							}
							gc := atpg.NewCube(len(g.InputIDs))
							mapped := true
							cube.ForEachCare(func(k int, v sim.V3) {
								if posMap[k] < 0 {
									mapped = false
									return
								}
								gc.Set(int(posMap[k]), v)
							})
							if !mapped {
								return fmt.Errorf("compat: partition %d produced a care bit outside the global input list", p)
							}
							results[ci] = outcome{cube: gc, ok: true}
						}
					}
				}))
			}(w)
		}
		wg.Wait()
		for _, p := range active {
			byPart[p] = byPart[p][:0]
		}
		if runErr != nil {
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

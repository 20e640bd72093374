package sim

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"time"
	"weak"

	"cghti/internal/netlist"
	"cghti/internal/obs"
)

// Batcher is the multiplexing Service the serving daemon mounts
// process-wide: pattern blocks from different jobs that target the same
// compiled program (the same structural fingerprint — the common case
// when many small jobs hit the same base circuits) are packed side by
// side into the word range of one wide engine and simulated together,
// so the idle bit-lanes a small exclusive engine would waste carry
// other jobs' patterns instead.
//
// Scheduling is fair-share: each engine cycle packs at most one queued
// block per job key (sim.WithJobKey; the daemon uses the job ID), in
// FIFO order, until the engine is full — a huge job streams its blocks
// one cycle at a time while small jobs keep landing beside it.
//
// Cancellation is cooperative withdrawal: a block whose context expires
// while still queued is removed from the queue and its Simulate returns
// ctx.Err(); once a dispatcher has taken a block its Fill/Read run to
// completion (they touch caller-owned state) and Simulate waits for
// them.
//
// Bit-identity: a block's Fill and Read see exactly its own word window
// through the Block view, every word is computed by the same compiled
// kernel sequence wherever it lands in the engine, and neighbouring
// lanes (other jobs' patterns, or stale data) are unreachable from the
// view — so results are byte-identical to the exclusive path for any
// packing arrangement. Request.Workers is ignored on the batched path;
// the shared engine runs with the batcher's own worker budget, which
// never changes results.
type Batcher struct {
	engineWords int
	workers     int

	mu     sync.Mutex
	closed bool
	progs  map[*Program]*progState
	memo   map[weak.Pointer[netlist.Netlist]]*netMemo
	wg     sync.WaitGroup
}

// Process-wide utilization metrics for the batching service, exported
// through the default registry like the shared-program counters:
// batch_fill over batch_capacity is the lane-fill ratio, block_wait the
// queue latency a block saw before dispatch.
var (
	batchFill     = obs.Default().Counter("sim.batch_fill")
	batchCapacity = obs.Default().Counter("sim.batch_capacity")
	batchRuns     = obs.Default().Counter("sim.batch_runs")
	blockWait     = obs.Default().Histogram("sim.block_wait")
)

// silentMeters swallow the shared engines' own accounting: the batcher
// attributes simulated vectors per block to each block's registry
// instead (a shared run's full 64*EngineWords capacity would otherwise
// land in the process totals even when half the lanes were idle).
var silentMeters = newMeters(obs.NewRegistry())

// DefaultEngineWords is the shared engine width when BatcherConfig
// leaves it 0: 64 words = 4096 patterns per run, room for e.g. four
// 16-word rare-extraction blocks side by side.
const DefaultEngineWords = 64

// BatcherConfig parameterizes NewBatcher.
type BatcherConfig struct {
	// EngineWords is the shared engine width in 64-pattern words
	// (DefaultEngineWords if 0). Requests wider than this fall back to
	// the exclusive pooled path — they could never pack beside anything.
	EngineWords int
	// Workers is the word-shard budget for each shared engine run
	// (1 = serial, 0 = GOMAXPROCS).
	Workers int
}

// NewBatcher builds a batching simulation service. Close it when done.
func NewBatcher(cfg BatcherConfig) *Batcher {
	if cfg.EngineWords <= 0 {
		cfg.EngineWords = DefaultEngineWords
	}
	if cfg.Workers == 0 {
		cfg.Workers = 1
	}
	return &Batcher{
		engineWords: cfg.EngineWords,
		workers:     cfg.Workers,
		progs:       make(map[*Program]*progState),
		memo:        make(map[weak.Pointer[netlist.Netlist]]*netMemo),
	}
}

// netMemo caches the (program, slot) resolution for one netlist
// pointer, with the same shape guard the engine pool uses against
// in-place mutation. Each entry owns one program reference. The memo
// holds its netlist only weakly: once the netlist is garbage, cleanup
// drops the entry and releases the program, so the memo never keeps a
// finished job's netlist alive.
type netMemo struct {
	gates, edges int
	prog         *Program
	slot         []int32
	cleanup      runtime.Cleanup
}

// progState is the per-program batching state: one FIFO queue and one
// lazily built wide engine per compiled program. The engine (once
// built) owns a program reference; the bare prog pointer does not.
type progState struct {
	prog  *Program
	eng   *Packed // engineWords wide; lease rows ARE program rows
	queue []*batchItem
	busy  bool // a dispatcher goroutine is draining the queue
}

// batchItem is one queued block.
type batchItem struct {
	req    *Request
	slot   []int32 // request gate IDs -> program rows (nil = identity)
	jobKey string
	reg    *obs.Registry
	enq    time.Time
	taken  bool // dispatched; no longer withdrawable
	done   chan error
}

var errBatcherClosed = fmt.Errorf("sim: batcher is closed")

// Simulate implements Service.
func (bt *Batcher) Simulate(ctx context.Context, req *Request) error {
	if req.Words < 1 {
		return fmt.Errorf("sim: batch request words must be >= 1, got %d", req.Words)
	}
	if req.Words > bt.engineWords {
		return Exclusive{}.Simulate(ctx, req)
	}
	if err := ctx.Err(); err != nil {
		return err
	}

	bt.mu.Lock()
	if bt.closed {
		bt.mu.Unlock()
		return errBatcherClosed
	}
	prog, slot, err := bt.resolveLocked(req.Netlist)
	if err != nil {
		bt.mu.Unlock()
		return err
	}
	ps := bt.progs[prog]
	if ps == nil {
		ps = &progState{prog: prog}
		bt.progs[prog] = ps
	}
	item := &batchItem{
		req:    req,
		slot:   slot,
		jobKey: JobKeyFor(ctx),
		reg:    obs.FromContext(ctx),
		enq:    time.Now(),
		done:   make(chan error, 1),
	}
	ps.queue = append(ps.queue, item)
	if !ps.busy {
		ps.busy = true
		bt.wg.Add(1)
		go bt.dispatch(ps)
	}
	bt.mu.Unlock()

	select {
	case err := <-item.done:
		return err
	case <-ctx.Done():
		// Withdraw if still queued; a taken block must finish (its Fill
		// and Read touch caller-owned state).
		bt.mu.Lock()
		if !item.taken {
			if i := slices.Index(ps.queue, item); i >= 0 {
				ps.queue = slices.Delete(ps.queue, i, i+1)
			}
			bt.mu.Unlock()
			return ctx.Err()
		}
		bt.mu.Unlock()
		return <-item.done
	}
}

// resolveLocked maps a netlist to its shared program and slot through
// the memo. Caller holds bt.mu.
func (bt *Batcher) resolveLocked(n *netlist.Netlist) (*Program, []int32, error) {
	edges := 0
	for i := range n.Gates {
		edges += len(n.Gates[i].Fanin)
	}
	key := weak.Make(n)
	if m := bt.memo[key]; m != nil {
		if m.gates == len(n.Gates) && m.edges == edges {
			return m.prog, m.slot, nil
		}
		// Mutated in place since memoized (e.g. a trojan was inserted):
		// drop the stale entry and re-resolve.
		bt.dropLocked(key, m)
	}
	if err := n.Levelize(); err != nil {
		return nil, nil, err
	}
	prog, slot, err := sharedProgram(netlist.CompactOf(n))
	if err != nil {
		return nil, nil, err
	}
	m := &netMemo{gates: len(n.Gates), edges: edges, prog: prog, slot: slot}
	m.cleanup = runtime.AddCleanup(n, bt.forget, key)
	bt.memo[key] = m
	return prog, slot, nil
}

// forget drops the memo entry of a netlist that has been collected.
func (bt *Batcher) forget(key weak.Pointer[netlist.Netlist]) {
	bt.mu.Lock()
	defer bt.mu.Unlock()
	if m := bt.memo[key]; m != nil {
		bt.dropLocked(key, m)
	}
}

// dropLocked removes one memo entry and releases its program. Caller
// holds bt.mu.
func (bt *Batcher) dropLocked(key weak.Pointer[netlist.Netlist], m *netMemo) {
	m.cleanup.Stop()
	releaseProgram(m.prog)
	delete(bt.memo, key)
}

// dispatch drains one program's queue, packing a fair-share cycle of
// blocks into the shared engine per run, until the queue is empty.
func (bt *Batcher) dispatch(ps *progState) {
	defer bt.wg.Done()
	for {
		bt.mu.Lock()
		if len(ps.queue) == 0 {
			ps.busy = false
			bt.mu.Unlock()
			return
		}
		// Fair-share cycle: scan the queue in FIFO order, taking at
		// most one block per job key and skipping blocks that don't fit
		// the remaining words — a narrower later block may still pack
		// in. Skipped blocks keep their queue order for the next cycle.
		var cycle []*batchItem
		seen := make(map[string]bool)
		used := 0
		rest := ps.queue[:0]
		for _, it := range ps.queue {
			if !seen[it.jobKey] && used+it.req.Words <= bt.engineWords {
				seen[it.jobKey] = true
				used += it.req.Words
				it.taken = true
				cycle = append(cycle, it)
				continue
			}
			rest = append(rest, it)
		}
		// Taken items must not linger past the filtered prefix: a stale
		// pointer there would keep the block's request (and its
		// netlist) alive.
		clear(ps.queue[len(rest):])
		ps.queue = rest
		if ps.eng == nil {
			// Build the shared wide engine on first dispatch: a
			// registry reference plus one vals allocation. The lease's
			// row space IS the program row space (identity slot), which
			// is exactly what the block views index into.
			ps.eng = newProgramEngine(ps.prog, bt.engineWords, bt.workers)
		}
		eng := ps.eng
		bt.mu.Unlock()

		now := time.Now()
		for _, it := range cycle {
			blockWait.Observe(now.Sub(it.enq))
		}
		batchRuns.Inc()
		batchFill.Add(int64(used))
		batchCapacity.Add(int64(bt.engineWords))

		// Place the blocks side by side and run once. Fill/Read execute
		// sequentially on this goroutine; a panic in a callback (or in
		// the engine) fails the affected blocks instead of killing the
		// dispatcher.
		off := 0
		views := make([]blockView, len(cycle))
		for i, it := range cycle {
			views[i] = blockView{eng: eng, slot: it.slot, off: off, words: it.req.Words}
			off += it.req.Words
		}
		errs := make([]error, len(cycle))
		for i := range cycle {
			i := i
			errs[i] = guardBlock("fill", func() { cycle[i].req.Fill(views[i]) })
		}
		// Blocks pack contiguously from word 0, so only the used lane
		// range needs computing: a half-filled cycle costs half an
		// engine run.
		start := time.Now()
		if runErr := guardBlock("run", func() { eng.runWords(used) }); runErr != nil {
			for i := range errs {
				if errs[i] == nil {
					errs[i] = runErr
				}
			}
		} else {
			defaultMeters.runTime.Observe(time.Since(start))
			for i := range cycle {
				if errs[i] != nil {
					continue
				}
				i := i
				errs[i] = guardBlock("read", func() { cycle[i].req.Read(views[i]) })
				// Per-block attribution: the block's registry (scoped
				// per job under the daemon) is charged exactly its own
				// vectors. Scoped registries mirror into the process
				// default, so the totals count useful lanes, not engine
				// capacity.
				m := metersFor(cycle[i].reg)
				m.packedRuns.Inc()
				m.packedVectors.Add(int64(64 * cycle[i].req.Words))
			}
		}
		for i, it := range cycle {
			it.done <- errs[i]
		}
	}
}

// guardBlock contains a panic from a block callback or engine run as an
// error delivered to the submitting caller.
func guardBlock(phase string, fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sim: batched %s panicked: %v", phase, r)
		}
	}()
	fn()
	return nil
}

// newProgramEngine builds a Packed lease directly over an
// already-registered program: identity slot, lease rows = program rows.
// The engine's own meters are silenced — the batcher accounts per
// block.
func newProgramEngine(prog *Program, words, workers int) *Packed {
	progRegistry.mu.Lock()
	prog.refs++
	progRegistry.mu.Unlock()
	p := &Packed{
		prog:  prog,
		words: words,
		met:   silentMeters,
		vals:  make([]uint64, prog.numGates*words),
	}
	p.SetWorkers(workers)
	return p
}

// Close shuts the batcher down: still-queued blocks fail with an error,
// in-flight dispatch cycles drain, and shared engines and memo
// references are released. Simulate after Close returns an error.
func (bt *Batcher) Close() {
	bt.mu.Lock()
	if bt.closed {
		bt.mu.Unlock()
		return
	}
	bt.closed = true
	for _, ps := range bt.progs {
		for _, it := range ps.queue {
			it.taken = true // no longer withdrawable; resolved below
			it.done <- errBatcherClosed
		}
		ps.queue = nil
	}
	for key, m := range bt.memo {
		bt.dropLocked(key, m)
	}
	bt.mu.Unlock()
	bt.wg.Wait()
	bt.mu.Lock()
	for _, ps := range bt.progs {
		ps.eng.Close() // nil-safe; the engine owns the progState's only ref
	}
	bt.progs = make(map[*Program]*progState)
	bt.mu.Unlock()
}

// blockView is a Block windowed onto a shared engine: gate IDs map
// through the block's own slot to program rows, word indices offset
// into the block's lane range. Nothing outside [off, off+words) is
// reachable, which is what makes shared-engine results byte-identical
// to exclusive ones.
type blockView struct {
	eng   *Packed
	slot  []int32
	off   int
	words int
}

func (v blockView) row(id netlist.GateID) int {
	if v.slot == nil {
		return int(id)
	}
	return int(v.slot[id])
}

func (v blockView) Words() int    { return v.words }
func (v blockView) Patterns() int { return 64 * v.words }

func (v blockView) SetWord(id netlist.GateID, w int, bits uint64) {
	v.eng.vals[v.row(id)*v.eng.words+v.off+w] = bits
}

func (v blockView) Word(id netlist.GateID, w int) uint64 {
	return v.eng.vals[v.row(id)*v.eng.words+v.off+w]
}

func (v blockView) SetBit(id netlist.GateID, pat int, b bool) {
	idx := v.row(id)*v.eng.words + v.off + pat/64
	mask := uint64(1) << uint(pat%64)
	if b {
		v.eng.vals[idx] |= mask
	} else {
		v.eng.vals[idx] &^= mask
	}
}

func (v blockView) Bit(id netlist.GateID, pat int) bool {
	return v.eng.vals[v.row(id)*v.eng.words+v.off+pat/64]&(1<<uint(pat%64)) != 0
}

func (v blockView) CountOnes(counts []int64, limit int) {
	W := v.eng.words
	fullWords := limit / 64
	remBits := limit % 64
	if fullWords > v.words {
		fullWords = v.words
		remBits = 0
	}
	for g := 0; g < v.eng.prog.numGates; g++ {
		base := v.row(netlist.GateID(g))*W + v.off
		var c int
		for w := 0; w < fullWords; w++ {
			c += bits.OnesCount64(v.eng.vals[base+w])
		}
		if remBits > 0 {
			mask := (uint64(1) << uint(remBits)) - 1
			c += bits.OnesCount64(v.eng.vals[base+fullWords] & mask)
		}
		counts[g] += int64(c)
	}
}

var _ Block = blockView{}
var _ Service = (*Batcher)(nil)

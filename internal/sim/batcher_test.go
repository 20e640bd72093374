package sim

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"cghti/internal/gen"
	"cghti/internal/netlist"
)

// simulateVia runs one random block through svc and returns every
// gate's output words — the full observable state of the simulation,
// so comparing it across services is a byte-identity check.
func simulateVia(t *testing.T, svc Service, ctx context.Context, n *netlist.Netlist, words int, seed int64) [][]uint64 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	inputs := n.CombInputs()
	out := make([][]uint64, len(n.Gates))
	err := svc.Simulate(ctx, &Request{
		Netlist: n,
		Words:   words,
		Workers: 1,
		Fill:    func(b Block) { FillRandom(b, inputs, rng) },
		Read: func(b Block) {
			for g := range out {
				ws := make([]uint64, words)
				for w := 0; w < words; w++ {
					ws[w] = b.Word(netlist.GateID(g), w)
				}
				out[g] = ws
			}
		},
	})
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	return out
}

// TestBatcherBitIdentical pins the tentpole's core guarantee: a block
// routed through the batching service produces byte-identical words to
// the exclusive pooled path, for several circuits and block widths.
func TestBatcherBitIdentical(t *testing.T) {
	bt := NewBatcher(BatcherConfig{EngineWords: 8})
	defer bt.Close()
	ctx := context.Background()
	for _, name := range []string{"c17", "s27", "c432", "c880"} {
		n := gen.MustBenchmark(name)
		for _, words := range []int{1, 3, 8, 16} { // 16 > EngineWords: exclusive fallback path
			want := simulateVia(t, Exclusive{}, ctx, n, words, 42)
			got := simulateVia(t, bt, ctx, n, words, 42)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s words=%d: batched simulation differs from exclusive", name, words)
			}
		}
	}
}

// TestBatcherCopacksJobs pins the fair-share packing mechanics
// deterministically: while the dispatcher is stuck in one block's Fill,
// more blocks from three job keys queue up behind it; the next cycle
// must contain exactly one block per key, packed side by side (nonzero
// offsets), and still produce byte-identical words per block.
func TestBatcherCopacksJobs(t *testing.T) {
	n := gen.MustBenchmark("c17")
	inputs := n.CombInputs()
	bt := NewBatcher(BatcherConfig{EngineWords: 8})
	defer bt.Close()

	// Block 0: stall the dispatcher inside Fill until the others queue.
	gate := make(chan struct{})
	firstQueued := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		err := bt.Simulate(context.Background(), &Request{
			Netlist: n, Words: 1,
			Fill: func(b Block) { close(firstQueued); <-gate },
			Read: func(b Block) {},
		})
		if err != nil {
			t.Errorf("stall block: %v", err)
		}
	}()
	<-firstQueued

	// Three more blocks: two keys plus a second block for key "a" (must
	// NOT share a cycle with the first "a" block).
	type result struct {
		run  int64 // batchRuns value observed inside Fill = cycle identity
		off  int   // lane offset within the shared engine
		outs [][]uint64
	}
	res := make(map[string]*result)
	var mu sync.Mutex
	submit := func(key, tag string, seed int64) {
		defer wg.Done()
		rng := rand.New(rand.NewSource(seed))
		r := &result{}
		ctx := WithJobKey(context.Background(), key)
		err := bt.Simulate(ctx, &Request{
			Netlist: n, Words: 2,
			Fill: func(b Block) {
				r.run = batchRuns.Value()
				r.off = b.(blockView).off
				FillRandom(b, inputs, rng)
			},
			Read: func(b Block) {
				for g := range n.Gates {
					ws := []uint64{b.Word(netlist.GateID(g), 0), b.Word(netlist.GateID(g), 1)}
					r.outs = append(r.outs, ws)
				}
			},
		})
		if err != nil {
			t.Errorf("block %s: %v", tag, err)
		}
		mu.Lock()
		res[tag] = r
		mu.Unlock()
	}
	wg.Add(3)
	go submit("a", "a1", 1)
	go submit("b", "b1", 2)
	go submit("a", "a2", 3)
	// Wait until all three are queued behind the stalled cycle, then
	// release the dispatcher.
	for {
		bt.mu.Lock()
		queued := 0
		for _, ps := range bt.progs {
			queued += len(ps.queue)
		}
		bt.mu.Unlock()
		if queued == 3 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	// Whichever "a" block queued first co-packs with b1; the other "a"
	// block must land in a later cycle of its own (fair share: one block
	// per job key per cycle).
	a1, b1, a2 := res["a1"], res["b1"], res["a2"]
	if a1.run == a2.run {
		t.Errorf("two blocks of job a share cycle %d — fair share violated", a1.run)
	}
	shared := a1
	if a2.run == b1.run {
		shared = a2
	}
	if shared.run != b1.run {
		t.Errorf("neither a block shares b1's cycle (runs a1=%d a2=%d b1=%d)", a1.run, a2.run, b1.run)
	} else {
		if shared.off == b1.off {
			t.Errorf("co-packed blocks share lane offset %d", shared.off)
		}
		if shared.off != 0 && b1.off != 0 {
			t.Errorf("no co-packed block at offset 0 (got %d, %d)", shared.off, b1.off)
		}
	}
	// Byte-identity per block regardless of where it landed.
	for tag, seed := range map[string]int64{"a1": 1, "b1": 2, "a2": 3} {
		want := simulateVia(t, Exclusive{}, context.Background(), n, 2, seed)
		if !reflect.DeepEqual(res[tag].outs, want) {
			t.Errorf("block %s: co-packed words differ from exclusive", tag)
		}
	}
}

// TestBatcherWithdrawal pins cooperative cancellation: a block whose
// context is canceled while still queued is withdrawn (its Fill never
// runs) and Simulate returns ctx.Err() without waiting for the engine.
func TestBatcherWithdrawal(t *testing.T) {
	n := gen.MustBenchmark("c17")
	bt := NewBatcher(BatcherConfig{EngineWords: 4})
	defer bt.Close()

	gate := make(chan struct{})
	stalled := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = bt.Simulate(context.Background(), &Request{
			Netlist: n, Words: 1,
			Fill: func(b Block) { close(stalled); <-gate },
			Read: func(b Block) {},
		})
	}()
	<-stalled

	ctx, cancel := context.WithCancel(context.Background())
	filled := false
	done := make(chan error, 1)
	go func() {
		done <- bt.Simulate(ctx, &Request{
			Netlist: n, Words: 1,
			Fill: func(b Block) { filled = true },
			Read: func(b Block) {},
		})
	}()
	// Wait for it to queue, then cancel while the dispatcher is stalled.
	for {
		bt.mu.Lock()
		queued := 0
		for _, ps := range bt.progs {
			queued += len(ps.queue)
		}
		bt.mu.Unlock()
		if queued == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("withdrawn block returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("withdrawn block did not return while dispatcher was stalled")
	}
	close(gate)
	wg.Wait()
	if filled {
		t.Error("withdrawn block's Fill ran")
	}
}

// TestBatcherClose pins shutdown: Simulate after Close errors, and
// Close is idempotent.
func TestBatcherClose(t *testing.T) {
	n := gen.MustBenchmark("c17")
	bt := NewBatcher(BatcherConfig{})
	// Exercise it once so Close has an engine to release.
	simulateVia(t, bt, context.Background(), n, 1, 7)
	bt.Close()
	bt.Close()
	err := bt.Simulate(context.Background(), &Request{
		Netlist: n, Words: 1, Fill: func(Block) {}, Read: func(Block) {},
	})
	if err == nil {
		t.Fatal("Simulate on closed batcher succeeded")
	}
}

// TestBatcherPanicContained pins that a panicking Fill or Read fails
// only its own block, as an error, and the dispatcher survives to run
// later blocks.
func TestBatcherPanicContained(t *testing.T) {
	n := gen.MustBenchmark("c17")
	bt := NewBatcher(BatcherConfig{})
	defer bt.Close()
	err := bt.Simulate(context.Background(), &Request{
		Netlist: n, Words: 1,
		Fill: func(Block) { panic("boom") },
		Read: func(Block) {},
	})
	if err == nil {
		t.Fatal("panicking Fill did not surface as an error")
	}
	// The service must still work afterwards.
	want := simulateVia(t, Exclusive{}, context.Background(), n, 1, 9)
	got := simulateVia(t, bt, context.Background(), n, 1, 9)
	if !reflect.DeepEqual(want, got) {
		t.Fatal("batcher broken after contained panic")
	}
}

// TestBatcherStaleNetlistMemo pins the memo's mutation guard: growing a
// netlist in place after it was batched must re-resolve to a fresh
// program that simulates the new gate.
func TestBatcherStaleNetlistMemo(t *testing.T) {
	n := gen.MustBenchmark("c17")
	bt := NewBatcher(BatcherConfig{})
	defer bt.Close()
	simulateVia(t, bt, context.Background(), n, 1, 3)

	src := n.CombInputs()[0]
	tap := n.MustAddGate("late_tap", netlist.Not)
	n.Connect(src, tap)
	if err := n.Levelize(); err != nil {
		t.Fatal(err)
	}

	var tapWord, srcWord uint64
	err := bt.Simulate(context.Background(), &Request{
		Netlist: n, Words: 1,
		Fill: func(b Block) {
			rng := rand.New(rand.NewSource(5))
			FillRandom(b, n.CombInputs(), rng)
		},
		Read: func(b Block) {
			tapWord = b.Word(tap, 0)
			srcWord = b.Word(src, 0)
		},
	})
	if err != nil {
		t.Fatalf("Simulate after mutation: %v", err)
	}
	if tapWord != ^srcWord {
		t.Errorf("late-added inverter not simulated: src=%x tap=%x", srcWord, tapWord)
	}
}

// TestServicePlumbing pins the context helpers the daemon relies on.
func TestServicePlumbing(t *testing.T) {
	if _, ok := ServiceFor(context.Background()).(Exclusive); !ok {
		t.Error("bare context should resolve to the Exclusive service")
	}
	bt := NewBatcher(BatcherConfig{})
	defer bt.Close()
	ctx := WithService(context.Background(), bt)
	if ServiceFor(ctx) != Service(bt) {
		t.Error("WithService did not round-trip")
	}
	if JobKeyFor(ctx) != "" {
		t.Error("unset job key should be empty")
	}
	if k := JobKeyFor(WithJobKey(ctx, "job-9")); k != "job-9" {
		t.Errorf("job key round-trip: got %q", k)
	}
}

// memoLen reports the number of memoized netlists.
func (bt *Batcher) memoLen() int {
	bt.mu.Lock()
	defer bt.mu.Unlock()
	return len(bt.memo)
}

// TestBatcherMemoReleasesDroppedNetlists pins that the netlist ->
// program memo holds its netlists weakly: after many distinct netlists
// are simulated and dropped, a garbage collection empties the memo and
// releases every program reference it held, leaving only the shared
// engine's own.
func TestBatcherMemoReleasesDroppedNetlists(t *testing.T) {
	_, refs0 := SharedProgramStats()
	bt := NewBatcher(BatcherConfig{})
	defer bt.Close()
	const jobs = 64
	live := make([]*netlist.Netlist, jobs)
	for i := range live {
		live[i] = gen.MustBenchmark("c17")
		simulateVia(t, bt, context.Background(), live[i], 1, int64(i))
	}
	if got := bt.memoLen(); got != jobs {
		t.Fatalf("memo holds %d netlists after %d distinct ones, want %d", got, jobs, jobs)
	}
	if _, refs := SharedProgramStats(); refs != refs0+jobs+1 {
		t.Fatalf("live program references = %d, want %d (one per memo entry plus the engine's)", refs, refs0+jobs+1)
	}
	runtime.KeepAlive(live)
	live = nil
	deadline := time.Now().Add(10 * time.Second)
	for bt.memoLen() > 0 && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
	if got := bt.memoLen(); got != 0 {
		t.Fatalf("memo still holds %d dropped netlists after GC", got)
	}
	if _, refs := SharedProgramStats(); refs != refs0+1 {
		t.Fatalf("live program references = %d after GC, want %d (the engine's only)", refs, refs0+1)
	}
}

package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestBucketIndexBounds pins the bucket layout: every duration lands in
// the bucket whose inclusive upper bound is the smallest one >= d.
func TestBucketIndexBounds(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{-time.Second, 0},
		{0, 0},
		{time.Nanosecond, 0},
		{time.Microsecond, 0},
		{time.Microsecond + 1, 1},
		{2 * time.Microsecond, 1},
		{2*time.Microsecond + 1, 2},
		{time.Millisecond, 10},
		{time.Second, 20},
		{100 * time.Hour, NumHistogramBuckets - 1},
	}
	for _, tc := range cases {
		if got := bucketIndex(tc.d); got != tc.want {
			t.Errorf("bucketIndex(%v) = %d, want %d", tc.d, got, tc.want)
		}
	}
	for i := 0; i < NumHistogramBuckets-1; i++ {
		b := HistogramBound(i)
		if got := bucketIndex(b); got != i {
			t.Errorf("bound %v maps to bucket %d, want %d (bounds must be inclusive)", b, got, i)
		}
		if got := bucketIndex(b + 1); got != i+1 && i+1 < NumHistogramBuckets {
			t.Errorf("bound %v+1ns maps to bucket %d, want %d", b, got, i+1)
		}
	}
}

// TestHistogramConcurrentExact hammers one histogram from many
// goroutines and checks the exact invariants: Count equals the number
// of observations, Sum equals the exact nanosecond total, and the
// buckets account for every observation. Run under -race in make ci.
func TestHistogramConcurrentExact(t *testing.T) {
	h := NewRegistry().Histogram("t.concurrent")
	const goroutines = 8
	const perG = 2000

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < perG; k++ {
				h.Observe(time.Duration(g*perG+k+1) * time.Microsecond)
			}
		}(g)
	}
	wg.Wait()

	snap := h.Snapshot()
	const n = goroutines * perG
	if snap.Count != n {
		t.Fatalf("count = %d, want %d", snap.Count, n)
	}
	wantSum := time.Duration(n) * time.Duration(n+1) / 2 * time.Microsecond
	if snap.Sum != wantSum {
		t.Fatalf("sum = %v, want %v", snap.Sum, wantSum)
	}
	var bucketTotal uint64
	for _, c := range snap.Buckets {
		bucketTotal += c
	}
	if bucketTotal != n {
		t.Fatalf("bucket total = %d, want %d", bucketTotal, n)
	}
}

// TestHistogramScopedMirror pins the scoped-registry rule for
// histograms: an Observe on a scoped histogram lands in both the scoped
// registry (exactly the run's own observations) and the parent
// (whole-process totals).
func TestHistogramScopedMirror(t *testing.T) {
	parent := NewRegistry()
	parent.Histogram("t.mirror").Observe(time.Millisecond) // pre-existing process history

	scoped := NewScoped(parent)
	for i := 0; i < 3; i++ {
		scoped.Histogram("t.mirror").Observe(time.Duration(i+1) * time.Millisecond)
	}

	if got := scoped.Histogram("t.mirror").Snapshot(); got.Count != 3 {
		t.Fatalf("scoped count = %d, want 3 (exactly the run's own work)", got.Count)
	}
	ps := parent.Histogram("t.mirror").Snapshot()
	if ps.Count != 4 {
		t.Fatalf("parent count = %d, want 4 (mirror broken)", ps.Count)
	}
	if want := 7 * time.Millisecond; ps.Sum != want {
		t.Fatalf("parent sum = %v, want %v", ps.Sum, want)
	}
}

// TestHistogramQuantile observes a known uniform distribution and
// checks the interpolated percentiles stay within one bucket octave of
// the true values.
func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	snap := h.Snapshot()

	p50 := snap.Quantile(0.50)
	if p50 < 400*time.Microsecond || p50 > 600*time.Microsecond {
		t.Fatalf("p50 = %v, want ~500µs", p50)
	}
	p99 := snap.Quantile(0.99)
	if p99 < 900*time.Microsecond || p99 > 1024*time.Microsecond {
		t.Fatalf("p99 = %v, want ~990µs (within the 1024µs bucket bound)", p99)
	}
	if q := snap.Quantile(1.0); q > 1024*time.Microsecond {
		t.Fatalf("p100 = %v, beyond the top populated bucket bound", q)
	}
	var empty HistogramSnapshot
	if q := empty.Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %v, want 0", q)
	}
}

// TestHistogramQuantileEdgeCases pins the documented results for the
// inputs that used to return misleading durations: out-of-range q
// (including NaN), an empty snapshot at every q, and a distribution
// whose whole mass sits in the overflow (+Inf) bucket.
func TestHistogramQuantileEdgeCases(t *testing.T) {
	nan := math.NaN()

	// Empty snapshot: 0 for every q, in range or not.
	var empty HistogramSnapshot
	for _, q := range []float64{-1, 0, 0.5, 1, 2, nan} {
		if got := empty.Quantile(q); got != 0 {
			t.Fatalf("empty.Quantile(%v) = %v, want 0", q, got)
		}
	}

	// Out-of-range q clamps: q < 0 and NaN behave as 0, q > 1 as 1.
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	snap := h.Snapshot()
	if got, want := snap.Quantile(-3), snap.Quantile(0); got != want {
		t.Fatalf("Quantile(-3) = %v, want the q=0 value %v", got, want)
	}
	if got, want := snap.Quantile(nan), snap.Quantile(0); got != want {
		t.Fatalf("Quantile(NaN) = %v, want the q=0 value %v", got, want)
	}
	if got, want := snap.Quantile(7), snap.Quantile(1); got != want {
		t.Fatalf("Quantile(7) = %v, want the q=1 value %v", got, want)
	}
	if got := snap.Quantile(nan); got < 0 || got > 128*time.Microsecond {
		t.Fatalf("Quantile(NaN) = %v, outside the observed range", got)
	}

	// All mass in the overflow bucket: the bucket has no upper bound to
	// interpolate toward, so the estimate is its lower bound clamped
	// into the observed extremes — never 0 or a fabricated value. Every
	// observation here is 4×infLo, so every quantile reports exactly
	// that.
	var inf Histogram
	infLo := HistogramBound(NumHistogramBuckets - 2)
	for i := 0; i < 10; i++ {
		inf.Observe(infLo * 4)
	}
	isnap := inf.Snapshot()
	if isnap.Buckets[NumHistogramBuckets-1] != 10 {
		t.Fatalf("setup: mass not in the overflow bucket: %v", isnap.Buckets)
	}
	for _, q := range []float64{0, 0.5, 0.99, 1, -1, 2, nan} {
		if got := isnap.Quantile(q); got != infLo*4 {
			t.Fatalf("overflow-only Quantile(%v) = %v, want the observed %v", q, got, infLo*4)
		}
	}
}

// TestHistogramQuantileClampedToExtremes pins the clamp to the observed
// extremes: a one-sample histogram reports that sample at every
// quantile (before the clamp, a lone 334ms sample read p50 = 524ms,
// a point inside its log2 bucket), and no quantile of a wider
// distribution leaves [min, max].
func TestHistogramQuantileClampedToExtremes(t *testing.T) {
	var one Histogram
	sample := 334 * time.Millisecond
	one.Observe(sample)
	snap := one.Snapshot()
	if snap.Min != sample || snap.Max != sample {
		t.Fatalf("extremes = [%v, %v], want [%v, %v]", snap.Min, snap.Max, sample, sample)
	}
	for _, q := range []float64{0, 0.01, 0.5, 0.9, 0.99, 1} {
		if got := snap.Quantile(q); got != sample {
			t.Fatalf("one-sample Quantile(%v) = %v, want %v", q, got, sample)
		}
	}

	var h Histogram
	for _, d := range []time.Duration{3 * time.Microsecond, 700 * time.Microsecond, 900 * time.Microsecond} {
		h.Observe(d)
	}
	snap = h.Snapshot()
	for _, q := range []float64{0, 0.1, 0.5, 0.9, 1} {
		if got := snap.Quantile(q); got < 3*time.Microsecond || got > 900*time.Microsecond {
			t.Fatalf("Quantile(%v) = %v outside the observed [3µs, 900µs]", q, got)
		}
	}
	if got := snap.Quantile(1); got != 900*time.Microsecond {
		t.Fatalf("Quantile(1) = %v, want the maximum 900µs", got)
	}

	// A scoped histogram's extremes are its own; the parent's cover
	// both.
	parent := NewRegistry()
	scoped := NewScoped(parent)
	parent.Histogram("t.lat").Observe(time.Second)
	scoped.Histogram("t.lat").Observe(sample)
	if s := scoped.Snapshot().Histograms["t.lat"]; s.Min != sample || s.Max != sample {
		t.Fatalf("scoped extremes = [%v, %v], want [%v, %v]", s.Min, s.Max, sample, sample)
	}
	if s := parent.Snapshot().Histograms["t.lat"]; s.Min != sample || s.Max != time.Second {
		t.Fatalf("parent extremes = [%v, %v], want [%v, %v]", s.Min, s.Max, sample, time.Second)
	}
}

// TestSnapshotDeltaHistograms pins histogram behavior in Snapshot.Delta:
// moved histograms subtract bucket-wise, unmoved ones are dropped.
func TestSnapshotDeltaHistograms(t *testing.T) {
	r := NewRegistry()
	r.Histogram("t.moves").Observe(time.Microsecond)
	r.Histogram("t.static").Observe(time.Second)
	base := r.Snapshot()

	r.Histogram("t.moves").Observe(5 * time.Microsecond)
	r.Histogram("t.moves").Observe(3 * time.Second)
	delta := r.Snapshot().Delta(base)

	if _, ok := delta.Histograms["t.static"]; ok {
		t.Fatal("unmoved histogram survived the delta")
	}
	d, ok := delta.Histograms["t.moves"]
	if !ok {
		t.Fatal("moved histogram missing from the delta")
	}
	if d.Count != 2 {
		t.Fatalf("delta count = %d, want 2", d.Count)
	}
	if want := 5*time.Microsecond + 3*time.Second; d.Sum != want {
		t.Fatalf("delta sum = %v, want %v", d.Sum, want)
	}
}

// TestReportHistogramStats pins the report form: NewReport summarizes
// snapshot histograms into count/sum/percentiles and the JSON
// round-trips.
func TestReportHistogramStats(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 10; i++ {
		r.Histogram("t.report").Observe(time.Millisecond)
	}
	rep := NewReport("test", nil, r.Snapshot())
	st, ok := rep.Histograms["t.report"]
	if !ok {
		t.Fatal("report has no histogram stats")
	}
	if st.Count != 10 || st.SumNS != (10*time.Millisecond).Nanoseconds() {
		t.Fatalf("stats = %+v, want count 10 sum 10ms", st)
	}
	if st.P50NS <= 0 || st.P50 == "" {
		t.Fatalf("stats missing percentiles: %+v", st)
	}

	var buf strings.Builder
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadReport(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Histograms["t.report"].Count != 10 {
		t.Fatalf("round-tripped count = %d, want 10", back.Histograms["t.report"].Count)
	}
}

// TestTextSinkRate pins the items/sec suffix on progress lines.
func TestTextSinkRate(t *testing.T) {
	var buf strings.Builder
	sink := TextSink(&buf)
	sink.Emit(Event{Stage: "rare_extract", Kind: StageProgress, Done: 500, Total: 1000, Elapsed: 2 * time.Second})
	line := buf.String()
	if !strings.Contains(line, "(250/s)") {
		t.Fatalf("progress line %q missing items/sec rate", line)
	}
	buf.Reset()
	sink.Emit(Event{Stage: "mine", Kind: StageProgress, Done: 3, Total: 0, Elapsed: 2 * time.Second})
	if line := buf.String(); !strings.Contains(line, "(1.5/s)") {
		t.Fatalf("totalless progress line %q missing items/sec rate", line)
	}
	buf.Reset()
	sink.Emit(Event{Stage: "mine", Kind: StageProgress, Done: 1, Total: 10})
	if line := buf.String(); strings.Contains(line, "/s)") {
		t.Fatalf("zero-elapsed progress line %q must not claim a rate", line)
	}
}

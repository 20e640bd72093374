package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// NumHistogramBuckets is the fixed bucket count of every Histogram.
// Buckets 0..NumHistogramBuckets-2 have log-spaced inclusive upper
// bounds of 1µs<<i (1µs, 2µs, 4µs, ... ≈76h); the last bucket is the
// overflow (+Inf) bucket. A fixed power-of-two layout keeps Observe a
// couple of atomic adds with no per-histogram configuration, gives
// every scrape a stable bucket schema, and bounds the quantile error to
// one octave (halved again by in-bucket interpolation).
const NumHistogramBuckets = 40

// HistogramBound returns bucket i's inclusive upper bound. The last
// bucket is unbounded (+Inf) and returns -1.
func HistogramBound(i int) time.Duration {
	if i >= NumHistogramBuckets-1 {
		return -1
	}
	return time.Microsecond << uint(i)
}

// bucketIndex maps a duration to its bucket: the smallest i with
// d <= 1µs<<i, clamped into the overflow bucket. Non-positive durations
// land in bucket 0.
func bucketIndex(d time.Duration) int {
	n := d.Nanoseconds()
	if n <= 1000 {
		return 0
	}
	i := bits.Len64(uint64(n-1) / 1000)
	if i > NumHistogramBuckets-1 {
		return NumHistogramBuckets - 1
	}
	return i
}

// Histogram is a lock-free log-bucketed latency distribution, safe for
// concurrent Observe from hot paths: one atomic add on the bucket plus
// one on the nanosecond sum (doubled per ancestor registry when the
// histogram is scoped — same mirroring rule as Counter), and the
// observed extremes, which bound every quantile estimate.
type Histogram struct {
	name    string
	mirror  *Histogram // same-named histogram in the parent registry, if scoped
	sum     atomic.Int64
	buckets [NumHistogramBuckets]atomic.Uint64
	minP1   atomic.Int64 // smallest observation in ns, plus 1; 0 = none yet
	max     atomic.Int64 // largest observation in ns
}

// Name returns the histogram's registered name.
func (h *Histogram) Name() string { return h.name }

// Observe records one duration. Negative durations count as 0.
func (h *Histogram) Observe(d time.Duration) {
	// Extremes first: a snapshot that counts this observation then
	// also sees it in [min, max].
	ns := max(d.Nanoseconds(), 0)
	for {
		cur := h.minP1.Load()
		if cur != 0 && cur <= ns+1 || h.minP1.CompareAndSwap(cur, ns+1) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if cur >= ns || h.max.CompareAndSwap(cur, ns) {
			break
		}
	}
	h.buckets[bucketIndex(d)].Add(1)
	h.sum.Add(d.Nanoseconds())
	if h.mirror != nil {
		h.mirror.Observe(d)
	}
}

// Snapshot captures the distribution. The observation count is derived
// from the bucket reads (not a separate atomic), so Count always equals
// the bucket total even when Observe calls race the snapshot — the
// invariant Prometheus exposition relies on (+Inf cumulative bucket ==
// count). Sum may trail the buckets by in-flight observations.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	for i := range h.buckets {
		c := h.buckets[i].Load()
		s.Buckets[i] = c
		s.Count += c
	}
	s.Sum = time.Duration(h.sum.Load())
	if s.Count > 0 {
		s.Min = time.Duration(h.minP1.Load() - 1)
		s.Max = time.Duration(h.max.Load())
	}
	return s
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	// Count is the total observation count (sum over Buckets).
	Count uint64
	// Sum is the total of all observed durations.
	Sum time.Duration
	// Buckets holds per-bucket (non-cumulative) counts; bucket bounds
	// come from HistogramBound.
	Buckets [NumHistogramBuckets]uint64
	// Min and Max bound every observation counted (0 when empty). A
	// Delta keeps the later snapshot's extremes: they still bound the
	// window's observations, if less tightly.
	Min, Max time.Duration
}

// Quantile estimates the q-quantile (0..1) by locating the target rank's
// bucket and interpolating linearly inside it, clamped to the observed
// [Min, Max] — so a single sample reports itself at every quantile
// instead of a point inside its bucket.
//
// Edge cases are defined, not accidental:
//   - An empty snapshot returns 0 — there is no data to make any claim
//     about, and 0 cannot be mistaken for a measured latency.
//   - q is clamped into [0,1]: q < 0 behaves as 0 (the first observed
//     bucket's rank-1 estimate), q > 1 behaves as 1 (the maximum). A NaN
//     q clamps to 0, the most conservative well-defined request.
//   - Mass in the overflow (+Inf) bucket estimates that bucket's lower
//     bound (HistogramBound(NumHistogramBuckets-2)), which the clamp
//     then moves into the observed extremes — never a fabricated value.
//   - A snapshot without recorded extremes (Max 0) is not clamped.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	est := s.bucketQuantile(q)
	if s.Count > 0 && s.Max > 0 {
		est = min(max(est, s.Min), s.Max)
	}
	return est
}

// bucketQuantile is Quantile before the clamp to the observed extremes.
func (s HistogramSnapshot) bucketQuantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	// !(q > 0) catches both q <= 0 and NaN, which would otherwise slip
	// through ordered comparisons and poison rank below.
	if !(q > 0) {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range s.Buckets {
		if c == 0 {
			continue
		}
		if float64(cum+c) >= rank {
			lo := time.Duration(0)
			if i > 0 {
				lo = HistogramBound(i - 1)
			}
			hi := HistogramBound(i)
			if hi < 0 {
				return lo
			}
			frac := (rank - float64(cum)) / float64(c)
			return lo + time.Duration(frac*float64(hi-lo))
		}
		cum += c
	}
	return 0
}

// Delta subtracts base bucket-wise. moved reports whether any bucket
// changed, so registry deltas can drop histograms that saw no
// observations in the window.
func (s HistogramSnapshot) Delta(base HistogramSnapshot) (out HistogramSnapshot, moved bool) {
	for i := range s.Buckets {
		d := s.Buckets[i] - base.Buckets[i]
		out.Buckets[i] = d
		out.Count += d
	}
	out.Sum = s.Sum - base.Sum
	if out.Count != 0 {
		out.Min, out.Max = s.Min, s.Max
	}
	return out, out.Count != 0
}

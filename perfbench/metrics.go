package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"syscall"
	"time"
)

// metricSpec names one reported metric and its unit. Both lists match
// BENCHMARK.json; every run prints every metric of its list, with 0
// where the workload does not exercise the layer.
type metricSpec struct {
	name, unit string
}

var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"pass_s", "s"},
	{"peak_rss_mb", "MB"},
	{"job_p50_ms", "ms"},
	{"job_p90_ms", "ms"},
	{"gen_job_p50_ms", "ms"},
	{"detect_job_p50_ms", "ms"},
	{"jobs_per_s", "1/s"},
}

// catalogCircuits are the circuits of the catalog-cold workload, in
// pass order: the paper's evaluation set plus c7552.
var catalogCircuits = []string{"c2670", "c3540", "c5315", "c6288", "s1423", "s13207", "s15850", "s35932", "c7552"}

var perLayer = append([]metricSpec{
	{"compat.cubes_s", "s"},
	{"atpg.podem_calls", "count"},
	{"atpg.podem_backtracks", "count"},
	{"atpg.podem_aborts", "count"},
	{"atpg.podem_us_per_call", "us"},
	{"compat.cube_yield", "ratio"},
	{"compat.edges_s", "s"},
	{"compat.pair_checks", "count"},
	{"compat.ns_per_pair", "ns"},
	{"compat.mine_s", "s"},
	{"compat.clique_attempts", "count"},
	{"compat.clique_yield", "ratio"},
	{"bench.parse_s", "s"},
	{"bench.parse_mb_per_s", "MB/s"},
	{"netlist.levelize_s", "s"},
	{"rare.extract_s", "s"},
	{"rare.vectors_simulated", "count"},
	{"rare.gate_evals_per_s", "1/s"},
	{"trojan.insert_s", "s"},
	{"trojan.instances", "count"},
	{"pipeline.self_s", "s"},
	{"verify.check_s", "s"},
	{"artifact.hit_ratio", "ratio"},
	{"artifact.puts", "count"},
	{"artifact.get_ms_mean", "ms"},
	{"sim.lane_fill", "ratio"},
	{"sim.block_wait_ms_mean", "ms"},
	{"sim.patterns_per_s_per_core", "1/s"},
	{"sim.program_hit_ratio", "ratio"},
	{"detect.random_ms", "ms"},
	{"detect.ndatpg_ms", "ms"},
	{"detect.mero_ms", "ms"},
	{"serve.submit_ms", "ms"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.retries_429", "count"},
	{"equiv.prove_s", "s"},
	{"trace.overhead_s", "s"},
	{"share.bench.parse", "ratio"},
	{"share.netlist.levelize", "ratio"},
	{"share.rare.extract", "ratio"},
	{"share.compat.cubes", "ratio"},
	{"share.compat.edges", "ratio"},
	{"share.compat.mine", "ratio"},
	{"share.trojan.insert", "ratio"},
	{"share.verify", "ratio"},
	{"share.harness", "ratio"},
}, generateMetrics()...)

func generateMetrics() []metricSpec {
	out := make([]metricSpec, len(catalogCircuits))
	for i, c := range catalogCircuits {
		out[i] = metricSpec{"generate_s." + c, "s"}
	}
	return out
}

// ledger counts the operations a run attempted and the ones that
// failed: a failed Generate or job, a failed correctness check, a 429
// whose retries ran out.
type ledger struct {
	mu        sync.Mutex
	attempted int
	failed    []string
}

// check records one attempted operation, failed when err is non-nil.
func (l *ledger) check(what string, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.attempted++
	if err != nil {
		l.failed = append(l.failed, fmt.Sprintf("%s: %v", what, err))
	}
}

func (l *ledger) counts() (attempted, failed int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.attempted, len(l.failed)
}

func (l *ledger) failures() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.failed...)
}

// checkDigest compares a run's output digest with the one an earlier
// run of the same workload and seed recorded in this checkout, and
// records it when it is the first.
func (env *runEnv) checkDigest(digest string) {
	path := filepath.Join(env.state, fmt.Sprintf("%s.seed%d.digest", env.workload, env.seed))
	prev, err := os.ReadFile(path)
	switch {
	case err == nil:
		if string(prev) != digest {
			err = fmt.Errorf("output digest %s differs from %s recorded by an earlier run with this seed", digest, prev)
		}
	case errors.Is(err, os.ErrNotExist):
		err = os.WriteFile(path, []byte(digest), 0o644)
	}
	env.ledger.check("digest repeats across runs", err)
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d output digest %s\n", env.workload, env.seed, digest)
}

// peakRSSMB is the process's peak resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// nearestRank is the q-quantile of ds by the nearest-rank rule; 0 for
// an empty sample.
func nearestRank(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func median(ds []time.Duration) time.Duration { return nearestRank(ds, 0.5) }

func mean(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

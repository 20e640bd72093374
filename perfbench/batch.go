package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"cghti"
	"cghti/internal/compat"
	"cghti/internal/detect"
	"cghti/internal/obs"
	"cghti/internal/rare"
	"cghti/internal/sim"
	"cghti/internal/trojan"
)

// setupReps is how many times a run builds its inputs; setup_s is the
// median.
const setupReps = 7

// gateDetectPatterns is the random-pattern budget of the detection
// check run on every emitted instance of the batch workloads.
const gateDetectPatterns = 4096

// batchWorkload is a workload whose pass runs ParseBench, a cold
// Generate and Result.Verify over a fixed circuit list.
type batchWorkload struct {
	circuits func(seed int64) []string
	config   func(seed int64) cghti.Config
	// guard checks that the mechanism the workload exists for was
	// exercised.
	guard func(res *cghti.Result) error
	// detectReps is how many timed detection runs the gate makes on
	// each instance: more where one run takes milliseconds.
	detectReps int
}

// catalogCold is the paper's Table III path: every evaluation circuit
// plus c7552, default θ/|V|/backtracks, no cache, no partitions.
var catalogCold = batchWorkload{
	circuits: func(int64) []string { return catalogCircuits },
	config: func(seed int64) cghti.Config {
		return cghti.Config{MinTriggerNodes: 4, Instances: 3, Workers: runtime.NumCPU(), Seed: seed}
	},
	guard: func(res *cghti.Result) error {
		if len(res.CachedStages) > 0 {
			return fmt.Errorf("cold Generate reported cached stages %v", res.CachedStages)
		}
		return nil
	},
	detectReps: 6,
}

// socScale is the partitioned scale path on two fixed 100k-gate SoCs,
// with the workload seed as Config.Seed, as catalog-cold does with its
// circuits. The PODEM work before the MaxRareNodes cutoff comes in
// whole batches of 64 calls, and how many a SoC needs depends mostly on
// the SoC: with one SoC drawn from the workload seed, that draw was the
// largest term of every time metric.
var socScale = batchWorkload{
	circuits: func(int64) []string { return []string{"soc:100000:1", "soc:100000:2"} },
	config: func(seed int64) cghti.Config {
		return cghti.Config{
			MinTriggerNodes: 4, Instances: 3, Partitions: 16, MaxRareNodes: 32, MaxBacktracks: 16,
			Workers: runtime.NumCPU(), Seed: seed,
		}
	},
	guard: func(res *cghti.Result) error {
		if g := res.Graph; g.CubesDone >= g.CubesTotal {
			return fmt.Errorf("MaxRareNodes cutoff not reached: %d of %d candidates processed", g.CubesDone, g.CubesTotal)
		}
		return nil
	},
	detectReps: 1,
}

type benchInput struct {
	name, text string
}

// passOut is one pass over every input.
type passOut struct {
	dur     time.Duration
	jobs    []time.Duration // per circuit, in input order
	results []*cghti.Result
	regs    []*cghti.Metrics // per circuit; nil entries when not collected
	digest  string
	// selfs is the traced pass's per-layer self time; nil untraced.
	selfs map[string]time.Duration
	evals float64 // gate evaluations of rare extraction, traced only
	// pipeSelf is the Generate pass's executor time (pipelineSelf
	// summed over circuits).
	pipeSelf time.Duration
	// global is the traced pass's delta of the process-wide counters
	// (the shared simulation program registry counts only there).
	global map[string]int64
}

func (w batchWorkload) setup(seed int64) ([]benchInput, time.Duration, error) {
	var durs []time.Duration
	var inputs []benchInput
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		var cur []benchInput
		for _, name := range w.circuits(seed) {
			n, err := cghti.Circuit(name)
			if err != nil {
				return nil, 0, err
			}
			var sb strings.Builder
			if err := cghti.WriteBench(&sb, n); err != nil {
				return nil, 0, err
			}
			cur = append(cur, benchInput{name: name, text: sb.String()})
		}
		durs = append(durs, time.Since(t0))
		if inputs != nil && !sameInputs(inputs, cur) {
			return nil, 0, fmt.Errorf("set-up is not deterministic: repetition %d rendered different inputs", rep)
		}
		inputs = cur
	}
	return inputs, median(durs), nil
}

func sameInputs(a, b []benchInput) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (w batchWorkload) run(env *runEnv) (map[string]float64, error) {
	inputs, setup, err := w.setup(env.seed)
	if err != nil {
		return nil, err
	}
	cfg := w.config(env.seed)
	runtime.GC()

	// Untraced passes (with the program's own per-run registries when
	// tracing, for the work counts), alternating with traced passes.
	var plain, traced []passOut
	var rec *recorder
	if env.trace {
		rec = newRecorder(fmt.Sprintf("%s-seed%d-%d", env.workload, env.seed, time.Now().UnixNano()))
	}
	start := time.Now()
	for {
		p, err := w.generatePass(env, inputs, cfg)
		if err != nil {
			return nil, err
		}
		// Only the last pass's outputs are kept (for the gate), so
		// memory does not grow with the number of passes.
		if len(plain) > 0 {
			plain[len(plain)-1].results = nil
		}
		plain = append(plain, p)
		next := p.dur
		if env.trace {
			t, err := w.tracedPass(env, inputs, cfg, rec)
			if err != nil {
				return nil, err
			}
			env.ledger.check("traced pass output equals Generate output",
				sameDigest(t.digest, p.digest))
			t.results = nil
			traced = append(traced, t)
			next += t.dur
		}
		env.ledger.check("pass output repeats within the run", sameDigest(p.digest, plain[0].digest))
		if time.Since(start)+next > env.seconds {
			break
		}
	}
	rss := peakRSSMB()
	last := plain[len(plain)-1]
	for i, res := range last.results {
		env.ledger.check(inputs[i].name+" mechanism guard", w.guard(res))
	}
	env.checkDigest(plain[0].digest)
	// So the gate's timings pay neither for the passes' garbage nor for
	// returning their memory to the system.
	debug.FreeOSMemory()
	prove, detects := gate(env, inputs, last.results, w.detectReps)

	if env.trace {
		return w.layerMetrics(env, inputs, plain, traced, rec, prove)
	}
	var passes, jobs []time.Duration
	var busy time.Duration
	for _, p := range plain {
		passes = append(passes, p.dur)
		jobs = append(jobs, p.jobs...)
		busy += p.dur
	}
	return map[string]float64{
		"setup_s":           setup.Seconds(),
		"pass_s":            median(passes).Seconds(),
		"peak_rss_mb":       rss,
		"job_p50_ms":        ms(median(jobs)),
		"job_p90_ms":        ms(nearestRank(jobs, 0.9)),
		"gen_job_p50_ms":    ms(median(jobs)),
		"detect_job_p50_ms": ms(median(detects)),
		"jobs_per_s":        float64(len(jobs)) / busy.Seconds(),
	}, nil
}

func sameDigest(got, want string) error {
	if got != want {
		return fmt.Errorf("digest %s, want %s", got, want)
	}
	return nil
}

// generatePass is the measured path: ParseBench → Generate → Verify per
// circuit. When tracing, each Generate gets its own run registry so the
// work counts can be compared with the traced pass.
func (w batchWorkload) generatePass(env *runEnv, inputs []benchInput, cfg cghti.Config) (passOut, error) {
	var out passOut
	t0 := time.Now()
	for _, in := range inputs {
		j0 := time.Now()
		n, err := cghti.ParseBench(strings.NewReader(in.text), in.name)
		if err != nil {
			return out, err
		}
		c := cfg
		if env.trace {
			c.Metrics = cghti.NewRunMetrics()
		}
		res, err := cghti.Generate(n, c)
		if err != nil {
			return out, fmt.Errorf("%s: %w", in.name, err)
		}
		err = res.Verify()
		out.jobs = append(out.jobs, time.Since(j0))
		env.ledger.check(in.name+" Generate+Verify", err)
		out.results = append(out.results, res)
		out.regs = append(out.regs, c.Metrics)
		out.pipeSelf += pipelineSelf(res)
	}
	out.dur = time.Since(t0)
	var err error
	out.digest, err = digestResults(inputs, out.results)
	return out, err
}

// tracedPass does the work of generatePass by calling each layer's
// public functions directly, with the configurations Generate builds,
// and records a span around each call.
func (w batchWorkload) tracedPass(env *runEnv, inputs []benchInput, cfg cghti.Config, rec *recorder) (passOut, error) {
	var out passOut
	snap0 := obs.Default().Snapshot()
	root := rec.begin("pass", 0)
	t0 := time.Now()
	for _, in := range inputs {
		reg := cghti.NewRunMetrics()
		ctx := obs.WithRegistry(context.Background(), reg)
		job := rec.begin("generate", root)
		rec.attr(job, "circuit", in.name)
		res, err := tracedGenerate(ctx, in, cfg, rec, job)
		rec.finish(job)
		if err != nil {
			rec.finish(root)
			return out, fmt.Errorf("%s: %w", in.name, err)
		}
		out.results = append(out.results, res)
		out.regs = append(out.regs, reg)
		out.evals += float64(reg.Counter("rare.vectors_simulated").Value()) * float64(len(res.Base.Gates))
	}
	rec.finish(root)
	out.dur = time.Since(t0)
	out.global = obs.Default().Snapshot().Delta(snap0).Counters
	out.selfs = rec.selfTimes(root)
	var err error
	out.digest, err = digestResults(inputs, out.results)
	return out, err
}

// tracedGenerate mirrors the stage graph GenerateContext builds
// (framework.go), one span per layer call.
func tracedGenerate(ctx context.Context, in benchInput, cfg cghti.Config, rec *recorder, parent int) (*cghti.Result, error) {
	step := func(name string, f func() error) error {
		id := rec.begin(name, parent)
		err := f()
		rec.finish(id)
		return err
	}
	var (
		n       *cghti.Netlist
		rs      *rare.Set
		g       *compat.Graph
		cliques []compat.Clique
		res     *cghti.Result
	)
	bc := compat.BuildConfig{
		MaxBacktracks: cfg.MaxBacktracks,
		MaxNodes:      cfg.MaxRareNodes,
		Workers:       cfg.Workers,
		Partitions:    cfg.Partitions,
	}
	steps := []struct {
		name string
		f    func() error
	}{
		{"bench.parse", func() (err error) {
			n, err = cghti.ParseBench(strings.NewReader(in.text), in.name)
			return err
		}},
		{"netlist.levelize", func() error { return n.Levelize() }},
		{"rare.extract", func() (err error) {
			rs, err = rare.ExtractContext(ctx, n, rare.Config{
				Vectors:    cfg.RareVectors,
				Threshold:  cfg.RareThreshold,
				Seed:       cfg.Seed,
				Workers:    cfg.Workers,
				Partitions: cfg.Partitions,
			})
			if err == nil && rs.Len() == 0 {
				err = fmt.Errorf("no rare nodes")
			}
			return err
		}},
		{"compat.cubes", func() (err error) {
			g, err = compat.BuildCubes(ctx, n, rs, bc)
			return err
		}},
		{"compat.edges", func() error { return g.ConnectEdges(ctx, bc) }},
		{"compat.mine", func() (err error) {
			cliques, err = g.FindCliquesContext(ctx, compat.MineConfig{
				MinSize:    cfg.MinTriggerNodes,
				MaxCliques: 4 * cfg.Instances,
				Attempts:   cfg.CliqueAttempts,
				Seed:       cfg.Seed,
			})
			g.SortByStealth(cliques)
			if err == nil && len(cliques) == 0 {
				err = fmt.Errorf("no clique of %d nodes", cfg.MinTriggerNodes)
			}
			return err
		}},
		{"trojan.insert", func() error {
			res = &cghti.Result{Base: n, RareSet: rs, Graph: g, Cliques: cliques}
			spec := trojan.InsertSpec{
				Trigger: trojan.TriggerSpec{ActiveLow: cfg.ActiveLow, FaninK: cfg.FaninK},
				Payload: cfg.Payload,
				Seed:    cfg.Seed,
			}
			for i := 0; i < cfg.Instances && i < len(cliques); i++ {
				c := cliques[i]
				infected, inst, err := trojan.InsertInstanceContext(ctx, n, c.Nodes(g), c.Cube, i, spec)
				if err != nil {
					return err
				}
				res.Benchmarks = append(res.Benchmarks, cghti.Benchmark{Netlist: infected, Instance: inst, Clique: c})
			}
			return nil
		}},
		{"verify", func() error { return res.Verify() }},
	}
	for _, s := range steps {
		if err := step(s.name, s.f); err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
	}
	return res, nil
}

// digestResults hashes every emitted .bench text and clique vertex set.
func digestResults(inputs []benchInput, results []*cghti.Result) (string, error) {
	h := sha256.New()
	for i, res := range results {
		fmt.Fprintf(h, "circuit %s\n", inputs[i].name)
		for _, b := range res.Benchmarks {
			fmt.Fprintf(h, "clique %v\n", b.Clique.Vertices)
			if err := cghti.WriteBench(h, b.Netlist); err != nil {
				return "", err
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// gate runs the checks that are too slow for the timed pass on every
// emitted instance: the dormant-equivalence proof and a random-pattern
// detection run that must not fire the trigger. It returns the total
// proof time and each instance's detection time.
//
// The detection runs go round-robin over the instances, one untimed
// warm-up round and then reps timed rounds, and an instance's detection
// time is the mean of its timed runs. Each round starts from an empty
// engine pool and program registry, so it compiles its simulation
// programs afresh, as detect jobs on new netlists do. A warm engine
// would keep one memory layout for the whole gate, and how fast a run
// is depends on that layout by up to a third; fresh engines every
// round average it out.
func gate(env *runEnv, inputs []benchInput, results []*cghti.Result, reps int) (time.Duration, []time.Duration) {
	ctx := context.Background()
	var prove time.Duration
	type target struct {
		what   string
		golden *cghti.Netlist
		tgt    detect.Target
		reps   []time.Duration
	}
	var targets []*target
	for i, res := range results {
		in := inputs[i]
		golden, err := cghti.ParseBench(strings.NewReader(in.text), in.name)
		env.ledger.check(in.name+" golden parse", err)
		if err != nil {
			continue
		}
		for _, b := range res.Benchmarks {
			what := fmt.Sprintf("%s instance %d", in.name, b.Instance.Index)
			t0 := time.Now()
			err := b.ProveDormant(golden)
			prove += time.Since(t0)
			env.ledger.check(what+" ProveDormant", err)

			tgt, err := b.DetectTarget(golden)
			if err != nil {
				env.ledger.check(what+" detect target", err)
				continue
			}
			targets = append(targets, &target{what: what, golden: golden, tgt: tgt})
		}
	}
	for r := 0; r <= reps; r++ {
		sim.DrainPackedPool()
		sim.DrainProgramRegistry()
		for _, t := range targets {
			t0 := time.Now()
			ts := detect.RandomTestSetContext(ctx, t.golden, gateDetectPatterns, env.seed)
			o, err := detect.EvaluateContext(ctx, t.tgt, ts, detect.EvalConfig{Workers: runtime.NumCPU()})
			if r > 0 {
				t.reps = append(t.reps, time.Since(t0))
			}
			if err == nil && o.Triggered {
				err = fmt.Errorf("random patterns fired the trigger at vector %d", o.FirstTrigger)
			}
			env.ledger.check(t.what+" random detection stays dormant", err)
		}
	}
	detects := make([]time.Duration, len(targets))
	for i, t := range targets {
		detects[i] = mean(t.reps)
	}
	return prove, detects
}

// workCounts are the counters compared between the Generate pass and
// the traced pass.
var workCounts = []string{
	"atpg.podem_calls", "atpg.podem_backtracks", "atpg.podem_aborts",
	"compat.cubes_generated", "compat.pair_checks", "compat.clique_attempts",
	"compat.cliques_found", "rare.vectors_simulated", "trojan.instances_inserted",
}

func sumCounters(regs []*cghti.Metrics) map[string]int64 {
	out := make(map[string]int64)
	for _, r := range regs {
		if r == nil {
			continue
		}
		for k, v := range r.Snapshot().Counters {
			out[k] += v
		}
	}
	return out
}

func (w batchWorkload) layerMetrics(env *runEnv, inputs []benchInput, plain, traced []passOut,
	rec *recorder, prove time.Duration) (map[string]float64, error) {
	layer := func(name string) time.Duration {
		var ds []time.Duration
		for _, t := range traced {
			ds = append(ds, t.selfs[name])
		}
		return median(ds)
	}
	var plainDur, tracedDur, pipeSelf []time.Duration
	perCircuit := make([][]time.Duration, len(inputs))
	for _, p := range plain {
		plainDur = append(plainDur, p.dur)
		pipeSelf = append(pipeSelf, p.pipeSelf)
		for i, d := range p.jobs {
			perCircuit[i] = append(perCircuit[i], d)
		}
	}
	for _, t := range traced {
		tracedDur = append(tracedDur, t.dur)
	}
	counts := sumCounters(traced[0].regs)
	cnt := func(name string) float64 { return float64(counts[name]) }
	global := func(name string) float64 { return float64(traced[0].global[name]) }
	bytes := 0
	for _, in := range inputs {
		bytes += len(in.text)
	}
	pass := median(tracedDur)
	cubes, edges, extract := layer("compat.cubes"), layer("compat.edges"), layer("rare.extract")
	m := map[string]float64{
		"compat.cubes_s":         cubes.Seconds(),
		"atpg.podem_calls":       cnt("atpg.podem_calls"),
		"atpg.podem_backtracks":  cnt("atpg.podem_backtracks"),
		"atpg.podem_aborts":      cnt("atpg.podem_aborts"),
		"atpg.podem_us_per_call": ratio(cubes.Seconds()*1e6, cnt("atpg.podem_calls")),
		"compat.cube_yield":      ratio(cnt("compat.cubes_generated"), cnt("atpg.podem_calls")),
		"compat.edges_s":         edges.Seconds(),
		"compat.pair_checks":     cnt("compat.pair_checks"),
		"compat.ns_per_pair":     ratio(edges.Seconds()*1e9, cnt("compat.pair_checks")),
		"compat.mine_s":          layer("compat.mine").Seconds(),
		"compat.clique_attempts": cnt("compat.clique_attempts"),
		"compat.clique_yield":    ratio(cnt("compat.cliques_found"), cnt("compat.clique_attempts")),
		"bench.parse_s":          layer("bench.parse").Seconds(),
		"bench.parse_mb_per_s":   ratio(float64(bytes)/1e6, layer("bench.parse").Seconds()),
		"netlist.levelize_s":     layer("netlist.levelize").Seconds(),
		"rare.extract_s":         extract.Seconds(),
		"rare.vectors_simulated": cnt("rare.vectors_simulated"),
		"rare.gate_evals_per_s":  ratio(traced[0].evals, extract.Seconds()),
		"trojan.insert_s":        layer("trojan.insert").Seconds(),
		"trojan.instances":       cnt("trojan.instances_inserted"),
		"pipeline.self_s":        median(pipeSelf).Seconds(),
		"verify.check_s":         layer("verify").Seconds(),
		"sim.patterns_per_s_per_core": ratio(global("sim.packed_vectors"),
			traced[0].dur.Seconds()*float64(runtime.NumCPU())),
		"sim.program_hit_ratio": ratio(global("sim.shared_program_hits"),
			global("sim.shared_program_hits")+global("sim.shared_program_misses")),
		"equiv.prove_s":    prove.Seconds(),
		"trace.overhead_s": (pass - median(plainDur)).Seconds(),
	}
	for _, l := range []string{"bench.parse", "netlist.levelize", "rare.extract", "compat.cubes",
		"compat.edges", "compat.mine", "trojan.insert", "verify"} {
		m["share."+l] = ratio(layer(l).Seconds(), pass.Seconds())
	}
	m["share.harness"] = ratio((layer("pass") + layer("generate")).Seconds(), pass.Seconds())
	for i, in := range inputs {
		m["generate_s."+in.name] = median(perCircuit[i]).Seconds()
	}

	// Work counts: the Generate pass and the traced pass did the same
	// work, so each count either repeats exactly or is labeled as not.
	plainCounts := sumCounters(plain[0].regs)
	repeats := make(map[string]bool)
	for _, name := range workCounts {
		repeats[name] = plainCounts[name] == counts[name]
		label := "repeats exactly"
		if !repeats[name] {
			label = "does not repeat exactly"
		}
		fmt.Fprintf(os.Stderr, "perfbench: count %-28s generate=%-12d traced=%-12d %s\n",
			name, plainCounts[name], counts[name], label)
	}
	dir := filepath.Join(env.state, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", env.workload, env.seed))
	err := rec.write(path, map[string]any{
		"counts_generate": plainCounts, "counts_traced": counts, "repeats_exactly": repeats,
		"layer_metrics": m, "host": hostInfo(), "seed": env.seed,
	})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: trace written to %s\n", path)
	return m, nil
}

// pipelineSelf is the generate span of the program's own trace minus
// its stage children: the executor's own time.
func pipelineSelf(res *cghti.Result) time.Duration {
	root := res.Trace.Find(cghti.StageGenerate)
	if root == nil {
		return 0
	}
	self := root.Duration()
	for _, c := range root.Children() {
		self -= c.Duration()
	}
	return self
}

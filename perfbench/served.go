package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"cghti"
	"cghti/internal/artifact"
	"cghti/internal/detect"
	"cghti/internal/journal"
	"cghti/internal/obs"
	"cghti/internal/rare"
	"cghti/internal/serve"
)

// The served-mixed workload: an in-process daemon behind loopback
// HTTP, driven by two closed-loop clients over a seeded schedule of
// generate and detect jobs. The schedule is a sequence of blocks with
// a fixed job mix; a run always completes whole blocks, so every run's
// latency sample has the same composition and the percentiles fall at
// the same place in it.

const (
	servedClients = 2
	// maxRetries429 is how many times a client resubmits after a 429
	// before the job counts as failed.
	maxRetries429 = 20
	servedQ       = 4 // min_trigger_nodes of generate jobs
	randomPattern = 20000
	meroN         = 2
	meroPool      = 1024
	ndatpgN       = 2
	detectTargets = 3
)

// genCircuits are the circuits generate jobs run on; detect jobs run
// against trojans planted in the first one.
var genCircuits = []string{"c880", "c1355", "s1423"}

// blockMix is one block of the schedule. Fresh generate jobs use a new
// seed each; resubmits repeat an earlier (circuit, seed) with no
// Idempotency-Key, so the daemon serves them from its artifact cache.
//
// The counts keep every reported percentile inside one latency mode
// rather than on the edge between two. Sorted by latency a block reads:
// 4 resubmits (~5 ms), 2 random detects (~30), 1 c880 (~45), 4 c1355
// (~85) and 3 s1423 (~150) generates, 3 MERO (~200) and 1 ND-ATPG
// (~450) detects. So job p50 lies mid-c1355, job p90 inside MERO, the
// generate p50 inside c1355 and the detect p50 inside MERO.
var blockMix = []struct {
	kind    string
	circuit string
	count   int
}{
	{"gen", "c880", 1},
	{"gen", "c1355", 4},
	{"gen", "s1423", 3},
	{"resubmit", "", 4},
	{"random", "", 2},
	{"mero", "", 3},
	{"ndatpg", "", 1},
}

func blockSize() int {
	n := 0
	for _, m := range blockMix {
		n += m.count
	}
	return n
}

// servedJob is one scheduled job and, once run, what its client saw.
type servedJob struct {
	kind    string // gen, resubmit, random, mero, ndatpg
	circuit string // generate jobs
	seed    int64
	target  int        // detect jobs: index into the planted targets
	orig    *servedJob // resubmit: the job it repeats

	id      string
	submit  time.Time // POST sent
	acked   time.Time // POST answered
	done    time.Time // terminal SSE event received
	retries int
	status  string
	err     error
	gen     *serve.GenerateResult
	det     *serve.DetectResult
	report  *obs.Report
	events  []sseArrival
	doneCh  chan struct{}
}

func (j *servedJob) isGen() bool { return j.kind == "gen" || j.kind == "resubmit" }

func (j *servedJob) latency() time.Duration { return j.done.Sub(j.submit) }

type sseArrival struct {
	At    time.Time `json:"at"`
	Event string    `json:"event"`
	Stage string    `json:"stage,omitempty"`
}

// plantedTarget is a trojan-infected c880 the detect jobs evaluate.
type plantedTarget struct {
	bench      string
	trigger    string
	activation int
}

type servedInputs struct {
	texts   map[string]string
	gates   map[string]int
	targets []plantedTarget
}

func buildServedInputs(seed int64) (*servedInputs, error) {
	in := &servedInputs{texts: map[string]string{}, gates: map[string]int{}}
	for _, c := range genCircuits {
		n, err := cghti.Circuit(c)
		if err != nil {
			return nil, err
		}
		var sb strings.Builder
		if err := cghti.WriteBench(&sb, n); err != nil {
			return nil, err
		}
		in.texts[c], in.gates[c] = sb.String(), len(n.Gates)
	}
	n, err := cghti.ParseBenchString(in.texts[genCircuits[0]], genCircuits[0])
	if err != nil {
		return nil, err
	}
	res, err := cghti.Generate(n, cghti.Config{MinTriggerNodes: servedQ, Instances: detectTargets, Seed: seed, Workers: 1})
	if err != nil {
		return nil, fmt.Errorf("planting detect targets: %w", err)
	}
	if len(res.Benchmarks) < detectTargets {
		return nil, fmt.Errorf("planting detect targets: %d of %d instances", len(res.Benchmarks), detectTargets)
	}
	for _, b := range res.Benchmarks {
		var sb strings.Builder
		if err := cghti.WriteBench(&sb, b.Netlist); err != nil {
			return nil, err
		}
		in.targets = append(in.targets, plantedTarget{
			bench:      sb.String(),
			trigger:    b.Instance.TriggerOut,
			activation: int(b.Instance.Trigger.Spec.ActivationValue()),
		})
	}
	return in, nil
}

// daemon is one in-process serve.Server on a loopback listener, with
// its journal and disk-backed artifact cache under dir.
type daemon struct {
	srv    *serve.Server
	hs     *http.Server
	jr     *journal.Journal
	base   string
	served chan error
}

func startDaemon(dir string) (*daemon, error) {
	jr, err := journal.Open(filepath.Join(dir, "journal"), journal.Options{})
	if err != nil {
		return nil, err
	}
	cache := artifact.NewCache(0, 0)
	if err := cache.AttachDir(filepath.Join(dir, "artifacts")); err != nil {
		jr.Close()
		return nil, err
	}
	srv := serve.New(serve.Config{Journal: jr, Cache: cache})
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain(context.Background())
		jr.Close()
		return nil, err
	}
	d := &daemon{srv: srv, hs: &http.Server{Handler: srv.Handler()}, jr: jr,
		base: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	go func() { d.served <- d.hs.Serve(ln) }()
	resp, err := http.Get(d.base + "/healthz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// stop shuts the listener, drains the daemon and closes its journal,
// returning once the serving goroutine has exited.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	d.srv.Drain(ctx)
	if jerr := d.jr.Close(); err == nil {
		err = jerr
	}
	return err
}

// servedSetup builds the inputs and starts a daemon; it is repeated
// setupReps times and all but the last daemon are stopped.
func servedSetup(env *runEnv) (*servedInputs, *daemon, time.Duration, error) {
	var durs []time.Duration
	var in *servedInputs
	var d *daemon
	for rep := 0; rep < setupReps; rep++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, nil, 0, err
			}
		}
		t0 := time.Now()
		var err error
		if in, err = buildServedInputs(env.seed); err != nil {
			return nil, nil, 0, err
		}
		if d, err = startDaemon(filepath.Join(env.scratch, fmt.Sprintf("daemon%d", rep))); err != nil {
			return nil, nil, 0, err
		}
		durs = append(durs, time.Since(t0))
	}
	return in, d, median(durs), nil
}

// schedule hands jobs to the clients in order. A new block starts only
// while the run's time is not up, so runs end on a block boundary.
type schedule struct {
	seed   int64
	warmup []*servedJob

	mu       sync.Mutex
	jobs     []*servedJob
	next     int
	deadline time.Time
	blocks   int
}

func newSchedule(seed int64) *schedule {
	s := &schedule{seed: seed}
	// Warm-up: fresh generate jobs the first blocks' resubmits repeat,
	// and one of each detect request, so compiled programs and the
	// detect rare sets are in place before timing.
	for i, c := range genCircuits {
		for k := 0; k < 2; k++ {
			s.warmup = append(s.warmup, &servedJob{kind: "gen", circuit: c, seed: seed*1000003 + int64(10*i+k)})
		}
	}
	for t := 0; t < detectTargets; t++ {
		s.warmup = append(s.warmup,
			&servedJob{kind: "mero", target: t, seed: seed},
			&servedJob{kind: "ndatpg", target: t, seed: seed},
			&servedJob{kind: "random", target: t, seed: seed*1000003 + int64(t)})
	}
	for _, j := range s.warmup {
		j.doneCh = make(chan struct{})
	}
	return s
}

// fresh lists the fresh generate jobs of block b (-1 = warm-up).
func (s *schedule) fresh(b int) []*servedJob {
	src := s.warmup
	if b >= 0 {
		n := blockSize()
		src = s.jobs[b*n : (b+1)*n]
	}
	var out []*servedJob
	for _, j := range src {
		if j.kind == "gen" {
			out = append(out, j)
		}
	}
	return out
}

// addBlock appends block b in a seeded order. Resubmits repeat fresh
// jobs from two blocks back, which have finished by then: a client is
// never more than one block ahead of the other.
func (s *schedule) addBlock(b int) {
	rng := rand.New(rand.NewSource(s.seed*7919 + int64(b)))
	src := -1
	if b >= 2 {
		src = b - 2
	}
	pool := s.fresh(src)
	var block []*servedJob
	k := 0
	for _, m := range blockMix {
		for i := 0; i < m.count; i++ {
			k++
			j := &servedJob{kind: m.kind, circuit: m.circuit, doneCh: make(chan struct{})}
			j.seed = s.seed*1000003 + int64(1000*(b+1)+k)
			switch m.kind {
			case "resubmit":
				j.orig = pool[rng.Intn(len(pool))]
				j.circuit, j.seed = j.orig.circuit, j.orig.seed
			case "random":
				j.target = rng.Intn(detectTargets)
			case "mero", "ndatpg":
				j.target, j.seed = rng.Intn(detectTargets), s.seed
			}
			block = append(block, j)
		}
	}
	rng.Shuffle(len(block), func(a, c int) { block[a], block[c] = block[c], block[a] })
	s.jobs = append(s.jobs, block...)
}

// take returns the next job, or nil once the time is up and the
// current block has been handed out.
func (s *schedule) take() *servedJob {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.next == len(s.jobs) {
		if time.Now().After(s.deadline) {
			return nil
		}
		s.addBlock(s.blocks)
		s.blocks++
	}
	j := s.jobs[s.next]
	s.next++
	return j
}

// client is one closed-loop caller with its own keep-alive connection.
type client struct {
	hc    *http.Client
	base  string
	in    *servedInputs
	trace bool
}

func newClient(base string, in *servedInputs, trace bool) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr}, base: base, in: in, trace: trace}
}

func (c *client) request(j *servedJob) (path string, body []byte, err error) {
	if j.isGen() {
		body, err = json.Marshal(serve.GenerateRequest{
			Bench: c.in.texts[j.circuit], Name: j.circuit, Seed: j.seed,
			Instances: 1, MinTriggerNodes: servedQ,
		})
		return "/v1/generate", body, err
	}
	t := c.in.targets[j.target]
	act := t.activation
	req := serve.DetectRequest{
		Golden: c.in.texts[genCircuits[0]], Infected: t.bench, Trigger: t.trigger,
		Activation: &act, Scheme: j.kind, Seed: j.seed,
	}
	switch j.kind {
	case "random":
		req.Patterns = randomPattern
	case "mero":
		req.N, req.Pool = meroN, meroPool
	case "ndatpg":
		req.N = ndatpgN
	}
	body, err = json.Marshal(req)
	return "/v1/detect", body, err
}

// run submits j, waits for its terminal event on the SSE stream and
// fetches the finished job.
func (c *client) run(j *servedJob) {
	defer close(j.doneCh)
	if j.orig != nil {
		<-j.orig.doneCh
	}
	j.err = c.do(j)
	if j.err == nil && j.status != string(serve.StatusDone) {
		j.err = fmt.Errorf("job %s ended %s", j.id, j.status)
	}
}

func (c *client) do(j *servedJob) error {
	path, body, err := c.request(j)
	if err != nil {
		return err
	}
	j.submit = time.Now()
	for {
		resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			if j.retries++; j.retries > maxRetries429 {
				return fmt.Errorf("429 retries exhausted")
			}
			wait, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
			time.Sleep(time.Duration(max(wait, 1)) * time.Second)
			continue
		}
		if resp.StatusCode != http.StatusAccepted {
			return fmt.Errorf("submit: %s: %s", resp.Status, bytes.TrimSpace(data))
		}
		var ack struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(data, &ack); err != nil {
			return err
		}
		j.id = ack.ID
		break
	}
	j.acked = time.Now()
	if err := c.await(j); err != nil {
		return err
	}
	return c.fetch(j)
}

// await reads the job's SSE stream to its end, noting when the
// terminal "result" event arrived.
func (c *client) await(j *servedJob) error {
	resp, err := c.hc.Get(c.base + "/v1/jobs/" + j.id + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	var event string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			now := time.Now()
			var ev struct {
				Stage  string `json:"stage"`
				Status string `json:"status"`
			}
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				return err
			}
			if c.trace {
				j.events = append(j.events, sseArrival{At: now, Event: event, Stage: ev.Stage})
			}
			if event == "result" {
				j.done, j.status = now, ev.Status
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if j.done.IsZero() {
		return fmt.Errorf("event stream of %s ended without a result", j.id)
	}
	return nil
}

type jobView struct {
	Status string          `json:"status"`
	Error  string          `json:"error"`
	Result json.RawMessage `json:"result"`
	Report *obs.Report     `json:"report"`
}

func (c *client) fetch(j *servedJob) error {
	resp, err := c.hc.Get(c.base + "/v1/jobs/" + j.id)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var v jobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return err
	}
	if v.Status != string(serve.StatusDone) {
		return fmt.Errorf("job %s: %s %s", j.id, v.Status, v.Error)
	}
	j.report = v.Report
	if j.isGen() {
		j.gen = new(serve.GenerateResult)
		return json.Unmarshal(v.Result, j.gen)
	}
	j.det = new(serve.DetectResult)
	return json.Unmarshal(v.Result, j.det)
}

// drive runs jobs from next on servedClients clients until next
// returns nil, and returns when every client has finished.
func drive(clients []*client, next func() *servedJob) {
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for j := next(); j != nil; j = next() {
				c.run(j)
			}
		}(c)
	}
	wg.Wait()
}

func runServed(env *runEnv) (map[string]float64, error) {
	in, d, setup, err := servedSetup(env)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			d.stop()
		}
	}()
	clients := make([]*client, servedClients)
	for i := range clients {
		clients[i] = newClient(d.base, in, env.trace)
	}
	sched := newSchedule(env.seed)

	var wmu sync.Mutex
	w := 0
	drive(clients, func() *servedJob {
		wmu.Lock()
		defer wmu.Unlock()
		if w == len(sched.warmup) {
			return nil
		}
		w++
		return sched.warmup[w-1]
	})

	before, err := scrape(d.base)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	sched.deadline = start.Add(env.seconds)
	drive(clients, sched.take)
	window := time.Since(start)
	rss := peakRSSMB()
	after, err := scrape(d.base)
	if err != nil {
		return nil, err
	}
	stopped = true
	if err := d.stop(); err != nil {
		return nil, fmt.Errorf("stopping daemon: %w", err)
	}

	all := append(append([]*servedJob(nil), sched.warmup...), sched.jobs...)
	prove := checkServed(env, in, all, before, after)
	if err := digestServed(env, sched); err != nil {
		return nil, err
	}

	var lat, gen, det []time.Duration
	for _, j := range sched.jobs {
		lat = append(lat, j.latency())
		if j.isGen() {
			gen = append(gen, j.latency())
		} else {
			det = append(det, j.latency())
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: served-mixed %d jobs in %d blocks over %v\n", len(sched.jobs), sched.blocks, window.Round(time.Millisecond))
	latencySummary(sched.jobs)
	if env.trace {
		return servedLayers(env, in, sched, before, after, window, prove)
	}
	return map[string]float64{
		"setup_s":           setup.Seconds(),
		"pass_s":            window.Seconds() / float64(sched.blocks),
		"peak_rss_mb":       rss,
		"job_p50_ms":        ms(median(lat)),
		"job_p90_ms":        ms(nearestRank(lat, 0.9)),
		"gen_job_p50_ms":    ms(median(gen)),
		"detect_job_p50_ms": ms(median(det)),
		"jobs_per_s":        float64(len(sched.jobs)) / window.Seconds(),
	}, nil
}

// metricsScrape is the daemon's whole-process telemetry at one moment:
// the /metrics.json counters and, from the Prometheus exposition, the
// _sum and _count of every histogram.
type metricsScrape struct {
	counters map[string]int64
	sums     map[string]float64 // histogram _sum, seconds
	counts   map[string]float64 // histogram _count
}

func scrape(base string) (*metricsScrape, error) {
	m := &metricsScrape{sums: map[string]float64{}, counts: map[string]float64{}}
	resp, err := http.Get(base + "/metrics.json")
	if err != nil {
		return nil, err
	}
	var body struct {
		Counters map[string]int64 `json:"counters"`
	}
	err = json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	m.counters = body.Counters
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		if h, ok := strings.CutSuffix(name, "_seconds_sum"); ok {
			m.sums[h] = v
		} else if h, ok := strings.CutSuffix(name, "_seconds_count"); ok {
			m.counts[h] = v
		}
	}
	return m, sc.Err()
}

func (m *metricsScrape) counter(name string, base *metricsScrape) float64 {
	return float64(m.counters[name] - base.counters[name])
}

// histMeanMS is the mean of the histogram's observations between base
// and m, from _sum/_count (never from its bucketed quantiles).
func (m *metricsScrape) histMeanMS(prom string, base *metricsScrape) float64 {
	return ratio((m.sums[prom]-base.sums[prom])*1e3, m.counts[prom]-base.counts[prom])
}

// checkServed is the served correctness gate: every job finished, each
// generate job equals the same request run through the library (and
// every instance of it verifies and is proven dormant), each MERO and
// ND-ATPG job equals the library run, random detection never fires a
// planted trigger, resubmits were served from the cache and the
// batcher ran. It returns the total dormant-proof time.
func checkServed(env *runEnv, in *servedInputs, jobs []*servedJob, before, after *metricsScrape) time.Duration {
	type genKey struct {
		circuit string
		seed    int64
	}
	type detKey struct {
		kind   string
		target int
	}
	genRefs := map[genKey]*serve.GenerateResult{}
	detRefs := map[detKey]*serve.DetectResult{}
	var genOrder []genKey
	var detOrder []detKey
	for _, j := range jobs {
		what := fmt.Sprintf("%s job %s (%s)", j.kind, j.id, j.circuit)
		env.ledger.check(what+" completed", j.err)
		switch {
		case j.err != nil:
		case j.isGen():
			k := genKey{j.circuit, j.seed}
			if _, ok := genRefs[k]; !ok {
				genRefs[k] = nil
				genOrder = append(genOrder, k)
			}
			if j.kind == "resubmit" && len(j.gen.CachedStages) == 0 {
				env.ledger.check(what+" served from the artifact cache", fmt.Errorf("no cached_stages"))
			}
		case j.kind == "random":
			var err error
			if j.det.Triggered || j.det.Vectors != randomPattern {
				err = fmt.Errorf("triggered=%v after %d of %d vectors", j.det.Triggered, j.det.Vectors, randomPattern)
			}
			env.ledger.check(what+" random detection stays dormant", err)
		default:
			k := detKey{j.kind, j.target}
			if _, ok := detRefs[k]; !ok {
				detRefs[k] = nil
				detOrder = append(detOrder, k)
			}
		}
	}
	var batchErr error
	if after.counter("sim.batch_capacity", before) <= 0 {
		batchErr = fmt.Errorf("sim.batch_capacity did not grow")
	}
	env.ledger.check("batcher exercised", batchErr)

	// Library references, on as many goroutines as there are CPUs.
	var mu sync.Mutex
	var prove time.Duration
	work := make(chan func())
	var wg sync.WaitGroup
	for i := 0; i < runtime.NumCPU(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for f := range work {
				f()
			}
		}()
	}
	for _, k := range genOrder {
		k := k
		work <- func() {
			ref, p, err := genReference(in, k.circuit, k.seed)
			env.ledger.check(fmt.Sprintf("library generate %s seed %d", k.circuit, k.seed), err)
			mu.Lock()
			genRefs[k], prove = ref, prove+p
			mu.Unlock()
		}
	}
	for _, k := range detOrder {
		k := k
		work <- func() {
			ref, err := detReference(in, k.kind, k.target, env.seed)
			env.ledger.check(fmt.Sprintf("library %s on target %d", k.kind, k.target), err)
			mu.Lock()
			detRefs[k] = ref
			mu.Unlock()
		}
	}
	close(work)
	wg.Wait()

	for _, j := range jobs {
		if j.err != nil {
			continue
		}
		what := fmt.Sprintf("%s job %s (%s seed %d)", j.kind, j.id, j.circuit, j.seed)
		switch {
		case j.isGen():
			ref := genRefs[genKey{j.circuit, j.seed}]
			got := *j.gen
			got.CachedStages = nil
			var err error
			if ref == nil || !reflect.DeepEqual(&got, ref) {
				err = fmt.Errorf("served result differs from the library run")
			}
			env.ledger.check(what+" equals library", err)
		case j.kind == "mero" || j.kind == "ndatpg":
			ref := detRefs[detKey{j.kind, j.target}]
			var err error
			if ref == nil || *ref != *j.det {
				err = fmt.Errorf("served %+v, library %+v", *j.det, ref)
			}
			env.ledger.check(what+" equals library", err)
		}
	}
	return prove
}

// genReference runs a generate request through the library, with the
// configuration the daemon builds for it, and checks its instances.
func genReference(in *servedInputs, circuit string, seed int64) (*serve.GenerateResult, time.Duration, error) {
	n, err := cghti.ParseBenchString(in.texts[circuit], circuit)
	if err != nil {
		return nil, 0, err
	}
	res, err := cghti.Generate(n, cghti.Config{MinTriggerNodes: servedQ, Instances: 1, Seed: seed, Workers: 1})
	if err != nil {
		return nil, 0, err
	}
	if err := res.Verify(); err != nil {
		return nil, 0, err
	}
	golden, err := cghti.ParseBenchString(in.texts[circuit], circuit)
	if err != nil {
		return nil, 0, err
	}
	out := &serve.GenerateResult{Circuit: res.Base.Name, RareNodes: res.RareSet.Len(), Cliques: len(res.Cliques)}
	var prove time.Duration
	for _, b := range res.Benchmarks {
		t0 := time.Now()
		err := b.ProveDormant(golden)
		prove += time.Since(t0)
		if err != nil {
			return nil, prove, err
		}
		var sb strings.Builder
		if err := cghti.WriteBench(&sb, b.Netlist); err != nil {
			return nil, prove, err
		}
		out.Benchmarks = append(out.Benchmarks, serve.GeneratedBench{
			Name:         b.Netlist.Name,
			Bench:        sb.String(),
			Trigger:      b.Instance.TriggerOut,
			Activation:   b.Instance.Trigger.Spec.ActivationValue(),
			TriggerNodes: len(b.Clique.Vertices),
			Payload:      b.Instance.Payload.String(),
			Victim:       b.Instance.Victim,
		})
	}
	return out, prove, nil
}

// detReference runs a MERO or ND-ATPG request through the library.
func detReference(in *servedInputs, scheme string, target int, seed int64) (*serve.DetectResult, error) {
	ctx := context.Background()
	golden, err := cghti.ParseBenchString(in.texts[genCircuits[0]], "golden")
	if err != nil {
		return nil, err
	}
	t := in.targets[target]
	infected, err := cghti.ParseBenchString(t.bench, "infected")
	if err != nil {
		return nil, err
	}
	trig, ok := infected.Lookup(t.trigger)
	if !ok {
		return nil, fmt.Errorf("trigger %q missing", t.trigger)
	}
	rs, err := rare.ExtractContext(ctx, golden, rare.Config{Seed: seed, Workers: 1})
	if err != nil {
		return nil, err
	}
	var ts *detect.TestSet
	if scheme == "mero" {
		ts, err = detect.MEROContext(ctx, golden, rs, detect.MEROConfig{N: meroN, RandomVectors: meroPool, Seed: seed, Workers: 1})
	} else {
		ts, err = detect.NDATPGContext(ctx, golden, rs, detect.NDATPGConfig{N: ndatpgN, Seed: seed, Workers: 1})
	}
	if err != nil {
		return nil, err
	}
	tgt := detect.Target{Golden: golden, Infected: infected, TriggerOut: trig, Activation: uint8(t.activation)}
	o, err := detect.EvaluateContext(ctx, tgt, ts, detect.EvalConfig{Workers: 1})
	if err != nil {
		return nil, err
	}
	return &serve.DetectResult{
		Scheme: scheme, Vectors: ts.Len(), Triggered: o.Triggered, FirstTrigger: o.FirstTrigger,
		Detected: o.Detected, FirstDetect: o.FirstDetect, RareNodes: rs.Len(),
	}, nil
}

// digestBlocks is how many leading blocks the served output digest
// covers: every run completes at least these.
const digestBlocks = 3

func digestServed(env *runEnv, sched *schedule) error {
	if sched.blocks < digestBlocks {
		return fmt.Errorf("only %d schedule blocks ran; the digest needs %d", sched.blocks, digestBlocks)
	}
	h := sha256.New()
	jobs := append(append([]*servedJob(nil), sched.warmup...), sched.jobs[:digestBlocks*blockSize()]...)
	for _, j := range jobs {
		fmt.Fprintf(h, "%s %s %d %d\n", j.kind, j.circuit, j.seed, j.target)
		switch {
		case j.gen != nil:
			for _, b := range j.gen.Benchmarks {
				fmt.Fprintf(h, "%s %s %s\n%s", b.Name, b.Trigger, b.Victim, b.Bench)
			}
		case j.det != nil:
			fmt.Fprintf(h, "%+v\n", *j.det)
		}
	}
	env.checkDigest(hex.EncodeToString(h.Sum(nil)))
	return nil
}

// servedLayers derives the per-layer metrics of the served path from
// outside the daemon: SSE arrival times, each job's report, and the
// before/after deltas of /metrics.json and the histogram _sum/_count.
func servedLayers(env *runEnv, in *servedInputs, sched *schedule, before, after *metricsScrape,
	window time.Duration, prove time.Duration) (map[string]float64, error) {
	rec := newRecorder(fmt.Sprintf("%s-seed%d-%d", env.workload, env.seed, time.Now().UnixNano()))
	stage := map[string]time.Duration{}
	var submits []time.Duration
	var waitSum, waitCount float64
	var evals float64
	retries := 0
	byScheme := map[string][]time.Duration{}
	for _, j := range sched.jobs {
		root := rec.add("job", 0, j.submit, j.done)
		rec.attr(root, "kind", j.kind)
		rec.attr(root, "id", j.id)
		rec.add("serve.submit", root, j.submit, j.acked)
		rec.add("sse.wait", root, j.acked, j.done)
		for _, ev := range j.events {
			id := rec.add("sse."+ev.Event, root, ev.At, ev.At)
			rec.attr(id, "stage", ev.Stage)
		}
		submits = append(submits, j.acked.Sub(j.submit))
		retries += j.retries
		if !j.isGen() {
			byScheme[j.kind] = append(byScheme[j.kind], j.latency())
		}
		if j.report == nil {
			continue
		}
		if h, ok := j.report.Histograms["serve.queue_wait"]; ok {
			waitSum += float64(h.SumNS)
			waitCount += float64(h.Count)
		}
		circuit := j.circuit
		if !j.isGen() {
			circuit = genCircuits[0]
		}
		evals += float64(j.report.Counters["rare.vectors_simulated"]) * float64(in.gates[circuit])
		for _, s := range j.report.Spans {
			if s.Name != cghti.StageGenerate {
				stage[s.Name] += time.Duration(s.DurationNS)
				continue
			}
			self := time.Duration(s.DurationNS)
			for _, c := range s.Children {
				stage[c.Name] += time.Duration(c.DurationNS)
				self -= time.Duration(c.DurationNS)
			}
			stage["pipeline.self"] += self
		}
	}
	cnt := func(name string) float64 { return after.counter(name, before) }
	cubes, edges := stage[cghti.StageCubeGen], stage[cghti.StageGraphEdges]
	hits, misses := cnt("artifact.cache_hits"), cnt("artifact.cache_misses")
	progHits, progMisses := cnt("sim.shared_program_hits"), cnt("sim.shared_program_misses")
	m := map[string]float64{
		"compat.cubes_s":              cubes.Seconds(),
		"atpg.podem_calls":            cnt("atpg.podem_calls"),
		"atpg.podem_backtracks":       cnt("atpg.podem_backtracks"),
		"atpg.podem_aborts":           cnt("atpg.podem_aborts"),
		"atpg.podem_us_per_call":      ratio(cubes.Seconds()*1e6, cnt("atpg.podem_calls")),
		"compat.cube_yield":           ratio(cnt("compat.cubes_generated"), cnt("atpg.podem_calls")),
		"compat.edges_s":              edges.Seconds(),
		"compat.pair_checks":          cnt("compat.pair_checks"),
		"compat.ns_per_pair":          ratio(edges.Seconds()*1e9, cnt("compat.pair_checks")),
		"compat.mine_s":               stage[cghti.StageCliqueMine].Seconds(),
		"compat.clique_attempts":      cnt("compat.clique_attempts"),
		"compat.clique_yield":         ratio(cnt("compat.cliques_found"), cnt("compat.clique_attempts")),
		"netlist.levelize_s":          stage[cghti.StageLevelize].Seconds(),
		"rare.extract_s":              stage[cghti.StageRareExtract].Seconds(),
		"rare.vectors_simulated":      cnt("rare.vectors_simulated"),
		"rare.gate_evals_per_s":       ratio(evals, stage[cghti.StageRareExtract].Seconds()),
		"trojan.insert_s":             stage[cghti.StageInsert].Seconds(),
		"trojan.instances":            cnt("trojan.instances_inserted"),
		"pipeline.self_s":             stage["pipeline.self"].Seconds(),
		"artifact.hit_ratio":          ratio(hits, hits+misses),
		"artifact.puts":               cnt("artifact.cache_puts"),
		"artifact.get_ms_mean":        after.histMeanMS("artifact_get_time", before),
		"sim.lane_fill":               ratio(cnt("sim.batch_fill"), cnt("sim.batch_capacity")),
		"sim.block_wait_ms_mean":      after.histMeanMS("sim_block_wait", before),
		"sim.patterns_per_s_per_core": cnt("sim.packed_vectors") / window.Seconds() / float64(runtime.NumCPU()),
		"sim.program_hit_ratio":       ratio(progHits, progHits+progMisses),
		"detect.random_ms":            ms(mean(byScheme["random"])),
		"detect.ndatpg_ms":            ms(mean(byScheme["ndatpg"])),
		"detect.mero_ms":              ms(mean(byScheme["mero"])),
		"serve.submit_ms":             ms(mean(submits)),
		"serve.queue_wait_ms":         ratio(waitSum/1e6, waitCount),
		"serve.retries_429":           float64(retries),
		"equiv.prove_s":               prove.Seconds(),
	}
	// Shares are of the daemon's worker time: the window times its
	// worker count.
	busy := window.Seconds() * serve.DefaultWorkers
	for metric, span := range map[string]string{
		"share.netlist.levelize": cghti.StageLevelize,
		"share.rare.extract":     cghti.StageRareExtract,
		"share.compat.cubes":     cghti.StageCubeGen,
		"share.compat.edges":     cghti.StageGraphEdges,
		"share.compat.mine":      cghti.StageCliqueMine,
		"share.trojan.insert":    cghti.StageInsert,
	} {
		m[metric] = stage[span].Seconds() / busy
	}
	dir := filepath.Join(env.state, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", env.workload, env.seed))
	err := rec.write(path, map[string]any{
		"layer_metrics": m, "host": hostInfo(), "seed": env.seed,
		"counters_delta": counterDelta(before, after), "blocks": sched.blocks,
	})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: trace written to %s\n", path)
	return m, nil
}

func counterDelta(before, after *metricsScrape) map[string]int64 {
	out := map[string]int64{}
	for k, v := range after.counters {
		if d := v - before.counters[k]; d != 0 {
			out[k] = d
		}
	}
	return out
}

// latencySummary prints each job kind's latency range to standard
// error, so the mix's modes can be seen.
func latencySummary(jobs []*servedJob) {
	by := map[string][]time.Duration{}
	var kinds []string
	for _, j := range jobs {
		k := j.kind
		if j.kind == "gen" {
			k += "/" + j.circuit
		}
		if by[k] == nil {
			kinds = append(kinds, k)
		}
		by[k] = append(by[k], j.latency())
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		ds := by[k]
		fmt.Fprintf(os.Stderr, "perfbench:   %-12s n=%-4d min=%-8.1f p50=%-8.1f max=%.1f ms\n",
			k, len(ds), ms(nearestRank(ds, 0)), ms(median(ds)), ms(nearestRank(ds, 1)))
	}
}

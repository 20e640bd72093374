// Command perfbench is the repository benchmark. One run measures one
// workload for a fixed time, checks every output it produced, and
// prints one JSON result object as the last line of standard output:
//
//	go -C perfbench build -o ../.bench_build/perfbench . &&
//	  .bench_build/perfbench --workload catalog-cold --seed 1 --seconds 25 --trace 0
//
// (perfbench/run.sh does exactly that; --workload all runs every
// workload in turn and fails if any fails.) With --trace 0 the result holds
// the end-to-end metrics; with --trace 1 a separate, traced run of the
// same workload reports the per-layer metrics instead. The workloads,
// the metric definitions and the correctness gate are described in
// perfbench/README.md.
//
// Every file the benchmark writes lives under .bench_build/ in the
// directory it is run from; its temporary files are removed before it
// exits. A failed correctness check still prints the result (with
// "correct": false) and exits with status 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// workload is one named input set the benchmark can measure.
type workload struct {
	name string
	run  func(env *runEnv) (map[string]float64, error)
}

var workloads = []workload{
	{"catalog-cold", catalogCold.run},
	{"soc-scale", socScale.run},
	{"served-mixed", runServed},
}

// runEnv is what a workload run receives from the command line, plus
// the ledger it records attempted and failed operations into.
type runEnv struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// scratch is a private temporary directory, removed at exit.
	scratch string
	// state persists across runs in one checkout (output digests).
	state  string
	ledger *ledger
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "workload name: catalog-cold, soc-scale, served-mixed, or all")
		seed    = flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds = flag.Int("seconds", 25, "how long one run measures, in seconds")
		trace   = flag.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	)
	flag.Parse()
	if *name == "all" {
		return runAll(*seed, *seconds, *trace)
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload <%s|all> --seed <n> --seconds <n> --trace <0|1>\n", workloadNames())
		return 2
	}

	base, err := filepath.Abs(".bench_build")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	env := &runEnv{
		workload: wl.name,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		state:    filepath.Join(base, "perfbench-state"),
		ledger:   &ledger{},
	}
	if err := os.MkdirAll(env.state, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	env.scratch, err = os.MkdirTemp(base, "perfbench-tmp-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(env.scratch)

	hostLine, _ := json.Marshal(map[string]any{
		"workload": wl.name, "seed": env.seed, "seconds": *seconds, "trace": *trace,
		"host": hostInfo(),
	})
	fmt.Println(string(hostLine))

	// An error ends the run early: it counts as a failed operation and
	// the result, printed anyway, reads correct=false.
	values, err := wl.run(env)
	if err != nil {
		env.ledger.check(wl.name+" run", err)
	}
	names := endToEnd
	if env.trace {
		names = perLayer
	}
	res := result{Metrics: make(map[string]metricValue, len(names))}
	for _, m := range names {
		res.Metrics[m.name] = metricValue{Value: values[m.name], Unit: m.unit}
	}
	res.Attempted, res.Failed = env.ledger.counts()
	res.Correct = res.Failed == 0 && res.Attempted > 0
	for _, f := range env.ledger.failures() {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload in turn, each in its own process so that
// peak RSS and the process-wide counters stay per workload, and fails
// if any of them fails.
func runAll(seed int64, seconds, trace int) int {
	status := 0
	for _, w := range workloads {
		cmd := exec.Command(os.Args[0], "--workload", w.name, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			status = 1
		}
	}
	return status
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, "|")
}

// hostInfo is the host record every result carries.
func hostInfo() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"cpu":        cpuModel(),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

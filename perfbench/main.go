// Command perfbench is the repository benchmark: it measures the paper
// reproduction end to end, through the entry points users run, and layer
// by layer in a separate traced run. BENCHMARK.json at the checkout root
// lists its workloads and metrics with their bounds; README.md in this
// directory says what each workload stresses and which layer metric
// should move which end-to-end metric.
//
// It is started by run.sh, which builds cmd/experiments, cmd/cohsimd and
// this program from the checkout's sources:
//
//	bash perfbench/run.sh --workload noise_full --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct":true,"attempted":9,"failed":0,"metrics":{"wall_s":{"value":23.7,"unit":"s"},...}}
//
// with every end-to-end metric when --trace is 0 and every per-layer
// metric when it is 1. Lines before it name each metric with its unit
// and sample count. Any failed operation or output mismatch makes the
// command exit with status 1.
//
// --workload all runs every workload in turn; --repeat N runs each
// workload N times on consecutive seeds and prints each metric's median,
// quartiles and spread against its bound; --compare A B compares two
// such reports and refuses when they come from different hosts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Workload names; each is described in BENCHMARK.json and README.md.
const (
	noiseFull    = "noise_full"
	channelsFull = "channels_full"
	daemonMixed  = "daemon_mixed"
)

var workloads = []string{noiseFull, channelsFull, daemonMixed}

// metricDef is one metric entry of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchmarkFile is the part of BENCHMARK.json the program reads.
type benchmarkFile struct {
	RunSeconds int         `json:"run_seconds"`
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"`
}

func loadBenchmarkFile(root string) (*benchmarkFile, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// metric is one reported value, as the result line carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		root     = flag.String("root", ".", "checkout root")
		bin      = flag.String("bin", ".bench_build/bin", "directory holding the built experiments and cohsimd binaries")
		rev      = flag.String("rev", "", "source revision for the result stamp")
		workload = flag.String("workload", "", "workload name, or all")
		seed     = flag.Uint64("seed", 1, "workload seed: derives every generated input")
		seconds  = flag.Int("seconds", 0, "measurement time per run (0 = run_seconds from BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		repeat   = flag.Int("repeat", 0, "steadiness mode: run each workload this many times on consecutive seeds")
		compare  = flag.Bool("compare", false, "compare two steadiness reports given as arguments")
	)
	flag.Parse()
	bf, err := loadBenchmarkFile(*root)
	if err != nil {
		die(err)
	}
	if *seconds <= 0 {
		*seconds = bf.RunSeconds
	}
	st := newStamp(*root, *rev)
	inv := invocation{root: *root, bin: *bin, rev: *rev}

	switch {
	case *compare:
		if flag.NArg() != 2 {
			die(fmt.Errorf("--compare takes two steadiness reports"))
		}
		os.Exit(compareReports(bf, flag.Arg(0), flag.Arg(1)))
	case *repeat > 0:
		os.Exit(steadiness(inv, bf, st, selectWorkloads(*workload), *seed, *seconds, *trace == 1, *repeat))
	case *workload == "all":
		os.Exit(runAll(inv, *seed, *seconds, *trace == 1))
	}

	if !contains(workloads, *workload) {
		die(fmt.Errorf("unknown workload %q (want %s or all)", *workload, strings.Join(workloads, ", ")))
	}
	if *trace != 0 && *trace != 1 {
		die(fmt.Errorf("--trace must be 0 or 1"))
	}
	r, err := newRun(*root, *bin, *workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		die(err)
	}
	fmt.Printf("stamp: %s\n", st)
	switch *workload {
	case noiseFull, channelsFull:
		r.sweep()
	case daemonMixed:
		r.daemon()
	}
	defs := bf.EndToEnd
	if r.traced {
		defs = bf.PerLayer
	}
	res := r.finish(defs)
	if err := saveRecord(*root, st, r, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: saving result record:", err)
	}
	r.cleanup()
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct || res.Failed > 0 {
		os.Exit(1)
	}
}

// finish checks that every listed metric was measured, prints each by
// name with its unit and sample count, and builds the result line.
func (r *run) finish(defs []metricDef) result {
	res := result{Attempted: r.attempted, Failed: r.failedOps, Metrics: map[string]metric{}}
	if res.Attempted < 1 {
		res.Attempted = 1
	}
	for _, d := range defs {
		v, ok := r.values[d.Name]
		if !ok {
			r.mismatch("metric %s was not measured", d.Name)
			continue
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
		fmt.Printf("%-14s %-44s %14.6g %-6s n=%d\n", r.workload, d.Name, v, d.Unit, r.samples[d.Name])
	}
	for _, n := range r.notes {
		fmt.Printf("%-14s %s\n", r.workload, n)
	}
	for _, f := range r.failures {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", r.workload, f)
	}
	res.Correct = r.mismatches == 0
	if r.attempted > 0 {
		fmt.Printf("%-14s %-44s %14.6g %-6s n=%d\n", r.workload, "failed_frac",
			float64(r.failedOps+r.mismatches)/float64(r.attempted), "1", r.attempted)
	}
	return res
}

func selectWorkloads(name string) []string {
	if name == "" || name == "all" {
		return workloads
	}
	return strings.Split(name, ",")
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// sortedKeys returns a map's keys in order, for stable reports.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

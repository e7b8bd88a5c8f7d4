package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// run is one benchmark run of one workload: its inputs, its scratch
// directory inside the checkout, and what it measured.
type run struct {
	root, bin string
	workload  string
	seed      uint64
	budget    time.Duration
	traced    bool
	// work is this run's scratch directory under .bench_build; removed
	// when the run ends.
	work string

	values  map[string]float64
	samples map[string]int
	notes   []string

	// attempted counts operations (sweep invocations, jobs); failedOps
	// those that failed or were refused; mismatches output checks that
	// did not hold.
	attempted  int
	failedOps  int
	mismatches int
	failures   []string

	tr *tracer
}

func newRun(root, bin, workload string, seed uint64, budget time.Duration, traced bool) (*run, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	bin, err = filepath.Abs(bin)
	if err != nil {
		return nil, err
	}
	base := filepath.Join(root, ".bench_build", "work")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(base, workload+"-")
	if err != nil {
		return nil, err
	}
	return &run{
		root: root, bin: bin, workload: workload, seed: seed, budget: budget, traced: traced,
		work:    work,
		values:  map[string]float64{},
		samples: map[string]int{},
		tr:      newTracer(traced),
	}, nil
}

func (r *run) cleanup() { os.RemoveAll(r.work) }

// childAttr makes a started program die with the benchmark, so that no
// daemon or sweep outlives a benchmark that crashed.
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// set records a metric value measured from n samples.
func (r *run) set(name string, v float64, n int) {
	r.values[name] = v
	r.samples[name] = n
}

func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// opFailed counts a failed or refused operation.
func (r *run) opFailed(format string, args ...any) {
	r.failedOps++
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// mismatch counts an output that differs from its reference.
func (r *run) mismatch(format string, args ...any) {
	r.mismatches++
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// dir returns a fresh directory under the run's scratch directory.
func (r *run) dir(name string) string {
	d := filepath.Join(r.work, name)
	if err := os.MkdirAll(d, 0o755); err != nil {
		die(err)
	}
	return d
}

// derivedSeed returns the i-th seed derived from the workload seed
// (splitmix64), never equal to skip.
func derivedSeed(seed uint64, i int, skip uint64) uint64 {
	for {
		z := seed + uint64(i+1)*0x9E3779B97F4A7C15
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
		z &= 1<<31 - 1 // keep seeds readable in TSVs and URLs
		if z != skip {
			return z
		}
		i += 1 << 20
	}
}

// median and quantiles follow Python's statistics.quantiles(n=4)
// (the "exclusive" method), the definition the bounds are checked with.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1 and Q3 by the exclusive method; with fewer than
// two values both are the single value.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return math.NaN(), math.NaN()
	}
	// The same integer arithmetic as CPython's statistics.quantiles,
	// including its extrapolation at the clamped ends.
	m := n + 1
	at := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// lowQuartile is the first quartile. Set-up samples are reduced with it
// rather than the median: scheduling delay only ever adds to a sample.
func lowQuartile(xs []float64) float64 {
	q1, _ := quartiles(xs)
	return q1
}

// percentile returns the p-th percentile (0..100) by nearest rank.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(s) {
		k = len(s) - 1
	}
	return s[k]
}

// stamp identifies where and on what a result was measured.
type stamp struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"goVersion"`
	Hostname   string `json:"hostname"`
	Rev        string `json:"rev,omitempty"`
	// Source digests every Go source and module file of the checkout, so
	// a result names its code even when the checkout is not a git
	// repository.
	Source string `json:"source"`
	Time   string `json:"time"`
}

func newStamp(root, rev string) stamp {
	host, _ := os.Hostname()
	return stamp{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Hostname:   host,
		Rev:        rev,
		Source:     sourceDigest(root),
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
}

// host is the part of the stamp two results must share to be compared.
func (s stamp) host() string {
	return fmt.Sprintf("%s | nproc %d | GOMAXPROCS %d | %s | %s", s.CPU, s.NumCPU, s.GOMAXPROCS, s.GoVersion, s.Hostname)
}

func (s stamp) String() string {
	rev := s.Rev
	if rev == "" {
		rev = "-"
	}
	return fmt.Sprintf("%s | rev %s | source %s", s.host(), rev, s.Source)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func sourceDigest(root string) string {
	h := sha256.New()
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "results") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") && name != "go.mod" && name != "go.sum" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return nil
		}
		defer f.Close()
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\x00", rel)
		io.Copy(h, f)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// record is one run's result as saved under .bench_build/results.
type record struct {
	Stamp    stamp          `json:"stamp"`
	Workload string         `json:"workload"`
	Seed     uint64         `json:"seed"`
	Traced   bool           `json:"traced"`
	Samples  map[string]int `json:"samples"`
	Notes    []string       `json:"notes,omitempty"`
	Failures []string       `json:"failures,omitempty"`
	Result   result         `json:"result"`
}

func saveRecord(root string, st stamp, r *run, res result) error {
	dir := filepath.Join(root, ".bench_build", "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(record{
		Stamp: st, Workload: r.workload, Seed: r.seed, Traced: r.traced,
		Samples: r.samples, Notes: r.notes, Failures: r.failures, Result: res,
	}, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", r.workload, r.seed, b2i(r.traced))
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

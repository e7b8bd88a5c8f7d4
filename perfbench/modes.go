package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// invocation holds the flags every child run is started with.
type invocation struct {
	root, bin, rev string
}

// child runs one workload in a fresh process with the flags of a single
// run, echoing its report lines and returning its result line.
func (inv invocation) child(workload string, seed uint64, seconds int, traced bool) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	cmd := exec.Command(self, "--root", inv.root, "--bin", inv.bin, "--rev", inv.rev,
		"--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(b2i(traced)))
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return result{}, err
	}
	if err := cmd.Start(); err != nil {
		return result{}, err
	}
	var last string
	sc := bufio.NewScanner(out)
	for sc.Scan() {
		if last != "" {
			fmt.Println(last)
		}
		last = sc.Text()
	}
	waitErr := cmd.Wait()
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return res, fmt.Errorf("%s seed %d: no result line (%v)", workload, seed, waitErr)
	}
	return res, waitErr
}

// runAll runs every workload once and prints one combined result line,
// its metrics named <workload>.<metric>.
func runAll(inv invocation, seed uint64, seconds int, traced bool) int {
	all := result{Correct: true, Metrics: map[string]metric{}}
	code := 0
	for _, w := range workloads {
		res, err := inv.child(w, seed, seconds, traced)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			code = 1
		}
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for k, v := range res.Metrics {
			all.Metrics[w+"."+k] = v
		}
	}
	if all.Attempted < 1 {
		all.Attempted = 1
	}
	line, _ := json.Marshal(all)
	fmt.Println(string(line))
	return code
}

// steadyReport is what a steadiness run saves: every value of every
// metric per workload, with the stamp of the host that measured them.
type steadyReport struct {
	Stamp   stamp                           `json:"stamp"`
	Seconds int                             `json:"seconds"`
	Traced  bool                            `json:"traced"`
	Values  map[string]map[string][]float64 `json:"values"`
}

// steadiness runs each workload n times on consecutive seeds and prints
// every metric's median, quartiles and spread (interquartile range over
// median) against its bound.
func steadiness(inv invocation, bf *benchmarkFile, st stamp, names []string, seed uint64, seconds int, traced bool, n int) int {
	rep := steadyReport{Stamp: st, Seconds: seconds, Traced: traced, Values: map[string]map[string][]float64{}}
	code := 0
	for _, w := range names {
		rep.Values[w] = map[string][]float64{}
		for i := 0; i < n; i++ {
			res, err := inv.child(w, seed+uint64(i), seconds, traced)
			if err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
				code = 1
			}
			for k, v := range res.Metrics {
				rep.Values[w][k] = append(rep.Values[w][k], v.Value)
			}
		}
	}
	defs := bf.EndToEnd
	if traced {
		defs = bf.PerLayer
	}
	fmt.Printf("\nsteadiness over %d runs per workload, %ds each, on %s\n", n, seconds, st)
	fmt.Printf("%-14s %-40s %12s %12s %12s %8s %6s  %s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound", "")
	for _, w := range names {
		for _, d := range defs {
			xs := rep.Values[w][d.Name]
			if len(xs) == 0 {
				continue
			}
			q1, q3 := quartiles(xs)
			med := median(xs)
			spread := math.Abs(q3-q1) / math.Abs(med)
			verdict := ""
			if d.Bound > 0 {
				switch {
				case spread <= d.Bound/3:
					verdict = "steady"
				case spread <= d.Bound:
					verdict = "within bound"
				default:
					verdict = "TOO NOISY"
				}
			}
			fmt.Printf("%-14s %-40s %12.6g %12.6g %12.6g %8.4f %6.2f  %s\n", w, d.Name, q1, med, q3, spread, d.Bound, verdict)
		}
	}
	dir := filepath.Join(inv.root, ".bench_build", "results")
	path := filepath.Join(dir, fmt.Sprintf("steady-%s.json", time.Now().UTC().Format("20060102T150405")))
	b, _ := json.MarshalIndent(rep, "", " ")
	if err := os.MkdirAll(dir, 0o755); err == nil {
		if err := os.WriteFile(path, b, 0o644); err == nil {
			fmt.Printf("report saved to %s\n", path)
		}
	}
	return code
}

// compareReports compares two steadiness reports metric by metric. It
// refuses reports measured on different hosts. A metric regresses when
// the second median is worse than the first by more than its bound; a
// metric whose first-run spread exceeds its bound is unresolved.
func compareReports(bf *benchmarkFile, basePath, headPath string) int {
	load := func(p string) (*steadyReport, error) {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r steadyReport
		return &r, json.Unmarshal(b, &r)
	}
	base, err := load(basePath)
	if err != nil {
		die(err)
	}
	head, err := load(headPath)
	if err != nil {
		die(err)
	}
	if base.Stamp.host() != head.Stamp.host() {
		fmt.Fprintf(os.Stderr, "perfbench: refusing to compare results from different hosts:\n  %s\n  %s\n", base.Stamp.host(), head.Stamp.host())
		return 2
	}
	if base.Seconds != head.Seconds || base.Traced != head.Traced {
		fmt.Fprintln(os.Stderr, "perfbench: refusing to compare runs of different length or tracing")
		return 2
	}
	defs := bf.EndToEnd
	if base.Traced {
		defs = bf.PerLayer
	}
	code := 0
	fmt.Printf("base %s\nhead %s\n", base.Stamp, head.Stamp)
	for _, w := range sortedKeys(base.Values) {
		for _, d := range defs {
			b, h := base.Values[w][d.Name], head.Values[w][d.Name]
			if len(b) == 0 || len(h) == 0 {
				continue
			}
			mb, mh := median(b), median(h)
			change := (mh - mb) / math.Abs(mb)
			worse := change
			if d.Better == "higher" {
				worse = -change
			}
			q1, q3 := quartiles(b)
			verdict := "no regression"
			switch {
			case d.Bound == 0:
				verdict = ""
			case math.Abs(q3-q1)/math.Abs(mb) > d.Bound:
				verdict = "unresolved (spread above bound)"
			case worse > d.Bound:
				verdict = "REGRESSION"
				code = 1
			}
			fmt.Printf("%-14s %-40s %12.6g -> %12.6g  %+7.2f%%  bound %.0f%%  %s\n",
				w, d.Name, mb, mh, 100*change, 100*d.Bound, strings.TrimSpace(verdict))
		}
	}
	return code
}

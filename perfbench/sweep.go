package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"coherentleak/internal/experiments"
	"coherentleak/internal/harness"
	"coherentleak/internal/machine"
	"coherentleak/internal/store"
)

// noiseArtifacts are the only artifacts that attach noise threads; the
// channels workload runs every other registered artifact.
var noiseArtifacts = []string{"fig9", "fig10", "capacity"}

const (
	// noiseLaunches and channelsLaunches are how many launches that only
	// time set-up (launch until the first cell starts) precede each cold
	// pass; each pass adds one more sample. Spreading them over the run
	// averages them over the host's speed, which drifts over tens of
	// seconds.
	noiseLaunches    = 4
	channelsLaunches = 2
	// noisePasses is how many cold passes noise_full makes whatever the
	// time budget: one pass takes over 20 s, and its peak RSS depends on
	// when the collector happens to run, so one sample is too few.
	noisePasses = 2
	// channelsTracedSeeds is how many seeds the traced channels run
	// profiles: one pass takes under 3 s, too few samples on its own.
	channelsTracedSeeds = 3
)

func (r *run) sweepArtifacts() []string {
	if r.workload == noiseFull {
		return noiseArtifacts
	}
	var out []string
	for _, n := range experiments.Artifacts().Names() {
		if !contains(noiseArtifacts, n) {
			out = append(out, n)
		}
	}
	return out
}

// sweepSeed is the seed of the i-th cold pass: the default seed first
// (its output has references), then seeds derived from the workload
// seed. noise_full runs the default seed only.
func (r *run) sweepSeed(i int) uint64 {
	if i == 0 || r.workload == noiseFull {
		return experiments.DefaultSeed
	}
	return derivedSeed(r.seed, i, experiments.DefaultSeed)
}

// pass is one cmd/experiments invocation as seen from outside.
type pass struct {
	wall, cpu time.Duration
	rssMB     float64
	// setup is launch until the first executed cell started; negative
	// when no cell executed (a fully cached rerun).
	setup            time.Duration
	executed, cached int
}

var (
	progressRE = regexp.MustCompile(`^\[\d+/\d+\] (\S+)\s+\S+ \(\d+ rows\)$`)
	doneRE     = regexp.MustCompile(`^done: \d+ artifact\(s\), (\d+) cell\(s\) executed, (\d+) cached`)
)

// experimentsCmd runs cmd/experiments with its default settings on one
// artifact list and seed, writing into out. With setupOnly it interrupts
// the process as soon as the first cell has finished, which is all a
// set-up sample needs; cmd/experiments then saves its manifest with the
// cells that completed.
func (r *run) experimentsCmd(out string, arts []string, seed uint64, setupOnly bool) (pass, error) {
	p := pass{setup: -1}
	cmd := exec.Command(filepath.Join(r.bin, "experiments"),
		"-out", out, "-only", strings.Join(arts, ","), "-seed", strconv.FormatUint(seed, 10))
	if !setupOnly {
		// An interrupted launch reports its cancellation; that is expected.
		cmd.Stderr = os.Stderr
	}
	cmd.SysProcAttr = childAttr()
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return p, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return p, err
	}
	sc := bufio.NewScanner(stdout)
	var firstCell string
	var firstAt time.Duration
	for sc.Scan() {
		line := sc.Text()
		if m := progressRE.FindStringSubmatch(line); m != nil && firstCell == "" {
			firstAt, firstCell = time.Since(start), m[1]
			if setupOnly {
				cmd.Process.Signal(os.Interrupt)
				io.Copy(io.Discard, stdout)
				cmd.Wait()
				return p, p.setFirstCell(out, firstCell, firstAt)
			}
		}
		if m := doneRE.FindStringSubmatch(line); m != nil {
			p.executed, _ = strconv.Atoi(m[1])
			p.cached, _ = strconv.Atoi(m[2])
		}
	}
	err = cmd.Wait()
	p.wall = time.Since(start)
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		p.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		p.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	if err != nil {
		return p, fmt.Errorf("experiments -only %s -seed %d: %w", strings.Join(arts, ","), seed, err)
	}
	if firstCell != "" && p.executed > 0 {
		if err := p.setFirstCell(out, firstCell, firstAt); err != nil {
			return p, err
		}
	}
	return p, nil
}

// setFirstCell sets the pass's set-up time from the first progress line:
// the first cell to finish is one of those that started first, so its
// start, when set-up ended, is when its line was read minus its wall
// time. The progress line rounds that to the millisecond, so the exact
// figure is read from the manifest the process saved in out.
func (p *pass) setFirstCell(out, cell string, readAt time.Duration) error {
	b, err := os.ReadFile(filepath.Join(out, "manifest.json"))
	if err != nil {
		return err
	}
	var m struct {
		Entries map[string]store.Entry `json:"entries"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		return fmt.Errorf("manifest in %s: %w", out, err)
	}
	for key, e := range m.Entries {
		if strings.HasPrefix(key, cell+"@") {
			p.setup = readAt - time.Duration(e.WallMillis*float64(time.Millisecond))
			return nil
		}
	}
	return fmt.Errorf("manifest in %s has no entry for %s", out, cell)
}

// sweep runs noise_full or channels_full.
func (r *run) sweep() {
	if r.traced {
		r.sweepTraced()
		return
	}
	arts := r.sweepArtifacts()
	refs := r.loadRefs()
	var setups, walls, cpus, rss []float64
	launches := channelsLaunches
	if r.workload == noiseFull {
		launches = noiseLaunches
	}

	var cachedDir string
	var coldTSV map[string][]byte
	began := time.Now()
	for i := 0; ; i++ {
		for k := 0; k < launches; k++ {
			r.attempted++
			p, err := r.experimentsCmd(r.dir(fmt.Sprintf("setup-%d-%d", i, k)), arts, experiments.DefaultSeed, true)
			if err != nil || p.setup < 0 {
				r.opFailed("set-up launch %d-%d: %v", i, k, err)
				continue
			}
			setups = append(setups, p.setup.Seconds())
		}
		seed := r.sweepSeed(i)
		out := r.dir(fmt.Sprintf("cold-%d", i))
		r.attempted++
		p, err := r.experimentsCmd(out, arts, seed, false)
		if err != nil {
			r.opFailed("cold pass seed %d: %v", seed, err)
			break
		}
		if p.cached != 0 || p.executed == 0 {
			r.mismatch("cold pass seed %d: %d executed, %d cached; want every cell executed", seed, p.executed, p.cached)
		}
		tsv := r.checkSweepOutput(out, arts, seed, refs)
		if i == 0 {
			cachedDir, coldTSV = out, tsv
		}
		walls = append(walls, p.wall.Seconds())
		cpus = append(cpus, p.cpu.Seconds())
		rss = append(rss, p.rssMB)
		if p.setup >= 0 {
			setups = append(setups, p.setup.Seconds())
		}
		// noise_full repeats the default seed; channels_full passes
		// continue while another one fits the time budget.
		if r.workload == noiseFull {
			if len(walls) == noisePasses {
				break
			}
			continue
		}
		if time.Since(began)+time.Duration(median(walls)*float64(time.Second)) > r.budget {
			break
		}
	}

	// One fully cached rerun must execute nothing and rewrite the same
	// tables.
	if cachedDir != "" {
		r.attempted++
		p, err := r.experimentsCmd(cachedDir, arts, experiments.DefaultSeed, false)
		switch {
		case err != nil:
			r.opFailed("cached rerun: %v", err)
		case p.executed != 0:
			r.mismatch("cached rerun executed %d cell(s); want all cached", p.executed)
		}
		for name, want := range coldTSV {
			if got, _ := os.ReadFile(filepath.Join(cachedDir, name)); !bytes.Equal(got, want) {
				r.mismatch("cached rerun: %s differs from the cold pass", name)
			}
		}
	}

	r.set("wall_s", median(walls), len(walls))
	r.set("cpu_s", median(cpus), len(cpus))
	r.set("peak_rss_mb", median(rss), len(rss))
	r.set("setup_s", lowQuartile(setups), len(setups))
	r.note("cold passes: %d over seeds %s", len(walls), r.seedList(len(walls)))
	r.note("set-up samples, ms: %s", msList(setups))
}

func (r *run) seedList(n int) string {
	var s []string
	for i := 0; i < n; i++ {
		s = append(s, strconv.FormatUint(r.sweepSeed(i), 10))
	}
	return strings.Join(s, ",")
}

// refs maps "<sizing>/<file>" to the SHA-256 of the TSV the default seed
// must produce, for artifacts without a committed file under results/.
type refs map[string]string

func (r *run) loadRefs() refs {
	out := refs{}
	b, err := os.ReadFile(filepath.Join(r.root, "perfbench", "refs.sha256"))
	if err != nil {
		r.mismatch("reference digests: %v", err)
		return out
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 2 && !strings.HasPrefix(line, "#") {
			out[f[1]] = f[0]
		}
	}
	return out
}

func sha256Hex(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// checkTSV checks one artifact table. At the default seed the bytes must
// equal the committed results/ file or, where none is committed, the
// recorded digest. At any other seed the table must have the artifact's
// header and well-formed rows.
func (r *run) checkTSV(a *harness.Artifact, got []byte, sizing harness.Sizing, seed uint64, refs refs) {
	what := fmt.Sprintf("%s (seed %d, %s)", a.File, seed, sizing)
	if seed == experiments.DefaultSeed {
		if sizing == harness.SizingFull {
			if want, err := os.ReadFile(filepath.Join(r.root, "results", a.File)); err == nil {
				if !bytes.Equal(got, want) {
					r.mismatch("%s differs from results/%s", what, a.File)
				}
				return
			}
		}
		key := string(sizing) + "/" + a.File
		want, ok := refs[key]
		switch {
		case !ok:
			r.mismatch("%s: no reference digest %s", what, key)
		case sha256Hex(got) != want:
			r.mismatch("%s: digest %s, reference %s", what, sha256Hex(got), want)
		}
		return
	}
	lines := strings.Split(strings.TrimSuffix(string(got), "\n"), "\n")
	if lines[0] != a.Header || len(lines) < 2 {
		r.mismatch("%s: missing header or rows", what)
		return
	}
	cols := strings.Count(a.Header, "\t")
	for _, row := range lines[1:] {
		if strings.Count(row, "\t") != cols {
			r.mismatch("%s: row %q does not match the header", what, row)
			return
		}
	}
}

// checkSweepOutput checks every TSV a sweep wrote and returns them by
// file name.
func (r *run) checkSweepOutput(out string, arts []string, seed uint64, refs refs) map[string][]byte {
	reg := experiments.Artifacts()
	tsv := map[string][]byte{}
	for _, name := range arts {
		a, _ := reg.Get(name)
		b, err := os.ReadFile(filepath.Join(out, a.File))
		if err != nil {
			r.mismatch("%s: %v", a.File, err)
			continue
		}
		r.checkTSV(a, b, harness.SizingFull, seed, refs)
		tsv[a.File] = b
	}
	return tsv
}

// sweepMeters accumulates the harness and store counters of traced passes.
type sweepMeters struct {
	mu       sync.Mutex
	cells    int
	busy     float64
	wait     float64
	maxCell  float64
	sink     float64
	artifact map[string]float64
	lookups  int
	hits     int
	puts     int
	putS     float64
	saveS    float64
}

// timedStore decorates the cell store every cell lookup and store of a
// pass goes through.
type timedStore struct {
	inner  store.CellStore
	m      *sweepMeters
	tr     *tracer
	trace  string
	parent int
}

func (s *timedStore) Lookup(key, digest string) (*store.Entry, bool) {
	t := time.Now()
	e, ok := s.inner.Lookup(key, digest)
	end := time.Now()
	s.tr.add(s.trace, "store.lookup", s.parent, t, end, map[string]string{"key": key, "hit": strconv.FormatBool(ok)})
	s.m.mu.Lock()
	s.m.lookups++
	if ok {
		s.m.hits++
	}
	s.m.mu.Unlock()
	return e, ok
}

func (s *timedStore) Store(key string, e *store.Entry) {
	t := time.Now()
	s.inner.Store(key, e)
	end := time.Now()
	s.tr.add(s.trace, "store.put", s.parent, t, end, map[string]string{"key": key})
	s.m.mu.Lock()
	s.m.puts++
	s.m.putS += end.Sub(t).Seconds()
	s.m.mu.Unlock()
}

func (s *timedStore) Len() int { return s.inner.Len() }

// timedSink decorates a harness sink.
type timedSink struct {
	inner  harness.Sink
	name   string
	m      *sweepMeters
	tr     *tracer
	trace  string
	parent int
}

func (s timedSink) WriteArtifact(res *harness.ArtifactResult) error {
	t := time.Now()
	err := s.inner.WriteArtifact(res)
	end := time.Now()
	s.tr.add(s.trace, "harness.sink."+s.name, s.parent, t, end, map[string]string{"artifact": res.Artifact.Name})
	s.m.mu.Lock()
	s.m.sink += end.Sub(t).Seconds()
	s.m.mu.Unlock()
	return err
}

// tracedPass runs one sweep in this process exactly as cmd/experiments
// runs it with default settings (manifest cache and replay archive under
// out, GOMAXPROCS cells in flight), with the cell store and sinks
// decorated and every finished cell observed.
func (r *run) tracedPass(out string, arts []*harness.Artifact, seed uint64, m *sweepMeters) (time.Duration, error) {
	trace := fmt.Sprintf("sweep-%d-%s", seed, filepath.Base(out))
	root := r.tr.reserve()
	begin := time.Now()
	manifestPath := filepath.Join(out, "manifest.json")
	manifest, err := harness.LoadManifest(manifestPath)
	if err != nil {
		manifest = harness.NewManifest()
	}
	runner := &harness.Runner{
		Parallel: runtime.GOMAXPROCS(0),
		Manifest: &timedStore{inner: manifest, m: m, tr: r.tr, trace: trace, parent: root},
		Sinks: []harness.Sink{
			timedSink{inner: harness.TSVSink{Dir: out, Log: io.Discard}, name: "tsv", m: m, tr: r.tr, trace: trace, parent: root},
			timedSink{inner: harness.ReplaySink{Dir: filepath.Join(out, "replay")}, name: "replay", m: m, tr: r.tr, trace: trace, parent: root},
		},
		Observe: func(done, total int, rep harness.CellReport) {
			end := time.Now()
			start := end.Add(-rep.Wall)
			r.tr.add(trace, "harness.cell", root, start, end, map[string]string{
				"artifact": rep.Artifact, "cell": rep.Cell, "cached": strconv.FormatBool(rep.Cached)})
			m.mu.Lock()
			defer m.mu.Unlock()
			if rep.Err != nil || rep.Cached {
				return
			}
			w := rep.Wall.Seconds()
			m.cells++
			m.busy += w
			m.wait += start.Sub(begin).Seconds()
			if w > m.maxCell {
				m.maxCell = w
			}
			m.artifact[rep.Artifact] += w
		},
	}
	report, err := runner.Run(context.Background(), harness.Plan{
		Cfg: machine.DefaultConfig(), Seed: seed, Sizing: harness.SizingFull,
	}, arts)
	t := time.Now()
	if serr := manifest.Save(manifestPath); serr != nil && err == nil {
		err = serr
	}
	end := time.Now()
	r.tr.add(trace, "store.save", root, t, end, nil)
	m.mu.Lock()
	m.saveS += end.Sub(t).Seconds()
	m.mu.Unlock()
	wall := end.Sub(begin)
	r.tr.set(root, trace, "sweep", 0, begin, end, map[string]string{"seed": strconv.FormatUint(seed, 10)})
	if err == nil {
		err = report.Err()
	}
	return wall, err
}

// sweepTraced is the traced sweep run: one untraced cmd/experiments pass
// for the tracing overhead, then profiled in-process passes (cold at each
// seed, then a cached rerun), then the layer probes.
func (r *run) sweepTraced() {
	names := r.sweepArtifacts()
	reg := experiments.Artifacts()
	arts, err := reg.Select(names)
	if err != nil {
		die(err)
	}
	refs := r.loadRefs()

	r.attempted++
	untraced, err := r.experimentsCmd(r.dir("untraced"), names, experiments.DefaultSeed, false)
	if err != nil {
		r.opFailed("untraced pass: %v", err)
	}

	// cmd/experiments relaxes the GC pacer the same way.
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(400)
	}
	m := &sweepMeters{artifact: map[string]float64{}}
	profPath := filepath.Join(r.work, "cpu.pprof")
	f, err := os.Create(profPath)
	if err != nil {
		die(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		die(err)
	}
	seeds := 1
	if r.workload == channelsFull {
		seeds = channelsTracedSeeds
	}
	var tracedWall time.Duration
	var defaultOut string
	for i := 0; i < seeds; i++ {
		seed := r.sweepSeed(i)
		out := r.dir(fmt.Sprintf("traced-%d", i))
		r.attempted++
		wall, err := r.tracedPass(out, arts, seed, m)
		if err != nil {
			r.opFailed("traced pass seed %d: %v", seed, err)
			continue
		}
		r.checkSweepOutput(out, names, seed, refs)
		if i == 0 {
			tracedWall, defaultOut = wall, out
		}
	}
	if defaultOut != "" {
		r.attempted++
		if _, err := r.tracedPass(defaultOut, arts, experiments.DefaultSeed, m); err != nil {
			r.opFailed("traced cached rerun: %v", err)
		}
		r.checkSweepOutput(defaultOut, names, experiments.DefaultSeed, refs)
	}
	pprof.StopCPUProfile()
	f.Close()
	r.layerCPU(profPath)

	r.set("harness.cells", float64(m.cells), m.cells)
	r.set("harness.cell_busy_s", m.busy, m.cells)
	r.set("harness.cell_wait_s", m.wait, m.cells)
	r.set("harness.cell_max_s", m.maxCell, m.cells)
	r.set("harness.sink_s", m.sink, len(arts)*(seeds+1)*2)
	for _, a := range reg.Artifacts() {
		r.set("harness.artifact."+a.Name+"_s", m.artifact[a.Name], 1)
	}
	r.set("store.lookups", float64(m.lookups), m.lookups)
	r.set("store.puts", float64(m.puts), m.puts)
	r.set("store.put_s", m.putS, m.puts)
	r.set("store.save_s", m.saveS, seeds+1)
	r.set("store.hit_ratio", float64(m.hits)/float64(max(m.lookups, 1)), m.lookups)
	for _, name := range []string{"service.admit_p99_ms", "service.queue_p99_ms", "service.run_p50_ms",
		"service.overhead_p50_ms", "tenant.refused", "loadgen.late_p99_ms"} {
		r.set(name, 0, 0)
	}
	r.set("trace.overhead_s", tracedWall.Seconds()-untraced.wall.Seconds(), 1)
	r.note("untraced default-seed pass %.3fs, traced %.3fs", untraced.wall.Seconds(), tracedWall.Seconds())
	r.probes()
	r.writeSpans()
}

func msList(xs []float64) string {
	var s []string
	for _, x := range xs {
		s = append(s, strconv.FormatFloat(x*1000, 'f', 3, 64))
	}
	return strings.Join(s, " ")
}

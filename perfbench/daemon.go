package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptrace"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"coherentleak/internal/experiments"
	"coherentleak/internal/harness"
)

// The daemon workload's traffic: an open loop of seeded arrivals from two
// tenants. hot resubmits the quick lrustate job at the default seed, which
// the daemon serves from its cell store; cold submits the same artifact at
// fresh seeds, which executes cells and grows the store. The load comes
// from one process over at most clientConns connections (the host has two
// CPUs). A job's event stream holds its connection until the job ends, so
// at most clientConns streams are followed at once; submits, streams and
// downloads of later arrivals wait for a free connection in the client.
// That wait counts in their latency, timed from the due time, and in the
// generator's lateness, not in the submit round trip.
//
// The daemon saves its whole manifest after every job, so its capacity
// falls as cold jobs fill the store. On the host the benchmark was defined
// on (2-vCPU Xeon VM), a fresh daemon served 514 hot or 54 cold jobs/s
// back to back over two connections, and the 5:1 mix ran at 104 jobs/s
// with 60 cold jobs in the store, about 70 with 120 and 49 with 200. A
// 20 s run ends with about 180, so the offered 36 jobs/s loads the daemon
// to between a third and three quarters of its capacity.
const (
	// hotRate and coldRate are the open loop's offered load, a 5:1 mix.
	hotRate     = 30.0 // hot jobs per second
	coldRate    = 6.0  // cold jobs per second
	clientConns = 2
	// segments is how many parts a daemon run is cut into: each is an
	// open-loop phase, then one fixed batch, and in an untraced run a
	// short-lived daemon started only to time set-up precedes it.
	segments = 8
	// hotLimitMs is the latency limit on hot jobs that defines capacity.
	hotLimitMs = 100.0
	// A fixed batch is batchHot and batchCold jobs, the same mix, sent
	// back to back over clientConns connections, so the daemon works
	// without idling in between.
	batchHot    = 40
	batchCold   = 8
	jobArtifact = "lrustate"
	hotKey      = "perfbench-hot-0001"
	coldKey     = "perfbench-cold-001"
	// profileAllowance is how much longer than the open loop the traced
	// run profiles the daemon, covering the batches.
	profileAllowance = 10 * time.Second
)

// capacityLadder is the fixed set of offered rates, as multiples of the
// base mix, at which capacity is probed after the main phase.
var capacityLadder = []float64{0.5, 1, 1.5, 2}

const rungSeconds = 2

// daemonProc is one cohsimd process started by the benchmark.
type daemonProc struct {
	cmd   *exec.Cmd
	base  string
	pprof string
	done  chan struct{}
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon launches cmd/cohsimd with its default settings, setting
// only the deployment flags: address, state directory, keys file and,
// for a traced run, the profiling address. It returns once /healthz
// answers.
func (r *run) startDaemon(name string, profiled bool) (*daemonProc, error) {
	keys := filepath.Join(r.work, "keys.json")
	if _, err := os.Stat(keys); err != nil {
		k := fmt.Sprintf(`{"tenants":[{"name":"hot","key":%q,"weight":1},{"name":"cold","key":%q,"weight":1}]}`, hotKey, coldKey)
		if err := os.WriteFile(keys, []byte(k), 0o600); err != nil {
			return nil, err
		}
	}
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	d := &daemonProc{base: fmt.Sprintf("http://127.0.0.1:%d", port), done: make(chan struct{})}
	args := []string{"-addr", fmt.Sprintf("127.0.0.1:%d", port), "-out", r.dir(name), "-keys", keys}
	if profiled {
		pport, err := freePort()
		if err != nil {
			return nil, err
		}
		d.pprof = fmt.Sprintf("127.0.0.1:%d", pport)
		args = append(args, "-pprof", d.pprof)
	}
	logf, err := os.Create(filepath.Join(r.work, name+".log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	d.cmd = exec.Command(filepath.Join(r.bin, "cohsimd"), args...)
	d.cmd.Stdout, d.cmd.Stderr = logf, logf
	d.cmd.SysProcAttr = childAttr()
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	go func() { d.cmd.Wait(); close(d.done) }()
	deadline := time.Now().Add(20 * time.Second)
	probe := &http.Client{Timeout: time.Second}
	for {
		resp, err := probe.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.done:
			return nil, fmt.Errorf("cohsimd exited during start-up (see %s.log)", name)
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("cohsimd did not answer /healthz within 20s")
		}
	}
}

// stop drains the daemon with SIGTERM and waits for it to exit, killing
// it if the drain takes too long.
func (d *daemonProc) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
}

// settle waits, up to two seconds, until the daemon uses no CPU over
// 50 ms: a job's terminal event is sent before the daemon has finished
// saving its manifest and collecting garbage.
func (d *daemonProc) settle() {
	for i := 0; i < 40; i++ {
		c0 := d.cpuSeconds()
		time.Sleep(50 * time.Millisecond)
		if d.cpuSeconds() == c0 {
			return
		}
	}
}

// cpuSeconds reads the daemon's user+system CPU time from /proc.
func (d *daemonProc) cpuSeconds() float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return math.NaN()
	}
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return math.NaN()
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) / 100 // USER_HZ is 100 on Linux
}

// peakRSSMB reads the daemon's resident-set high-water mark from /proc.
func (d *daemonProc) peakRSSMB() float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024
		}
	}
	return math.NaN()
}

// jobView is the part of the daemon's job JSON the benchmark reads.
type jobView struct {
	ID       string     `json:"id"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started"`
	Finished *time.Time `json:"finished"`
}

// sseEvent is the part of a job progress event the benchmark reads.
type sseEvent struct {
	Type  string `json:"type"`
	State string `json:"state"`
	Error string `json:"error"`
	Cell  *struct {
		Cached     bool    `json:"cached"`
		WallMillis float64 `json:"wallMillis"`
	} `json:"cell"`
}

// job is one request of the open loop and what became of it.
type job struct {
	hot  bool
	seed uint64
	due  time.Time
	// late is how far past due the generator sent the request: its own
	// delay in starting it plus the wait for a free connection.
	late time.Duration
	// admit is the submit POST round trip.
	admit    time.Duration
	terminal time.Time
	id       string
	state    string
	refused  bool
	err      error
	tsv      []byte
	cells    int
	cached   int
	cellMs   float64
	maxCell  float64
	view     *jobView
}

func (j *job) latencyMs() float64 { return float64(j.terminal.Sub(j.due)) / float64(time.Millisecond) }

func (j *job) key() string {
	if j.hot {
		return hotKey
	}
	return coldKey
}

// client is the load generator's HTTP side: one transport capped at
// clientConns connections to the daemon.
type client struct {
	http   *http.Client
	base   string
	traced bool
	tr     *tracer
}

// newClient returns a client; a traced one reads job views and records
// spans into tr.
func newClient(base string, traced bool, tr *tracer) *client {
	if !traced {
		tr = newTracer(false)
	}
	t := &http.Transport{MaxConnsPerHost: clientConns, MaxIdleConnsPerHost: clientConns, DisableCompression: true}
	// The timeout only ends a run whose daemon has hung; a job takes
	// milliseconds.
	return &client{http: &http.Client{Transport: t, Timeout: time.Minute}, base: base, traced: traced, tr: tr}
}

func (c *client) close() { c.http.CloseIdleConnections() }

func (c *client) do(method, path, key string, body []byte) (*http.Response, error) {
	return c.doCtx(context.Background(), method, path, key, body)
}

func (c *client) doCtx(ctx context.Context, method, path, key string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Authorization", "Bearer "+key)
	return c.http.Do(req)
}

// run submits the job, follows it to its terminal state over SSE and
// downloads its table; a traced client also reads the job view.
func (c *client) run(j *job) {
	trace := fmt.Sprintf("job-seed%d-%d", j.seed, j.due.UnixNano())
	root := c.tr.reserve()
	defer func() {
		c.tr.set(root, trace, "job", 0, j.due, time.Now(), map[string]string{"job": j.id, "hot": strconv.FormatBool(j.hot)})
	}()
	t := time.Now()
	body := fmt.Sprintf(`{"artifacts":[%q],"sizing":"quick","seed":%d}`, jobArtifact, j.seed)
	// The submit round trip is timed from when a connection was free;
	// the wait for one is the generator's, not the daemon's.
	gotConn := t
	ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		GotConn: func(httptrace.GotConnInfo) { gotConn = time.Now() },
	})
	resp, err := c.doCtx(ctx, http.MethodPost, "/v1/jobs", j.key(), []byte(body))
	j.admit = time.Since(gotConn)
	j.late += gotConn.Sub(t)
	t = gotConn
	if err != nil {
		j.err = err
		return
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	c.tr.add(trace, "service.submit", root, t, t.Add(j.admit), map[string]string{"status": strconv.Itoa(resp.StatusCode)})
	if resp.StatusCode == http.StatusTooManyRequests {
		j.refused = true
		return
	}
	var v jobView
	if resp.StatusCode != http.StatusAccepted || json.Unmarshal(b, &v) != nil {
		j.err = fmt.Errorf("submit: %s: %s", resp.Status, strings.TrimSpace(string(b)))
		return
	}
	j.id = v.ID

	t = time.Now()
	if err := c.follow(j); err != nil {
		j.err = err
		return
	}
	c.tr.add(trace, "service.follow", root, t, j.terminal, map[string]string{"job": j.id, "state": j.state})
	if j.state != "done" {
		j.err = fmt.Errorf("job %s ended %s", j.id, j.state)
		return
	}

	t = time.Now()
	resp, err = c.do(http.MethodGet, "/v1/jobs/"+j.id+"/artifacts/"+jobArtifact+".tsv", j.key(), nil)
	if err != nil {
		j.err = err
		return
	}
	j.tsv, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("download: %s", resp.Status)
	}
	if err != nil {
		j.err = err
		return
	}
	c.tr.add(trace, "service.download", root, t, time.Now(), map[string]string{"job": j.id})

	if c.traced {
		t = time.Now()
		resp, err := c.do(http.MethodGet, "/v1/jobs/"+j.id, j.key(), nil)
		if err != nil {
			j.err = err
			return
		}
		var v jobView
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil || v.Started == nil || v.Finished == nil {
			j.err = fmt.Errorf("job view %s: %v", j.id, err)
			return
		}
		j.view = &v
		c.tr.add(trace, "service.view", root, t, time.Now(), map[string]string{"job": j.id})
		c.tr.add(trace, "service.queue", root, v.Created, *v.Started, map[string]string{"job": j.id})
		c.tr.add(trace, "service.run", root, *v.Started, *v.Finished, map[string]string{"job": j.id})
	}
}

// follow reads the job's Server-Sent Events until its terminal state.
func (c *client) follow(j *job) error {
	resp, err := c.do(http.MethodGet, "/v1/jobs/"+j.id+"/events", j.key(), nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev sseEvent
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return fmt.Errorf("events: %v", err)
		}
		switch {
		case ev.Type == "cell" && ev.Cell != nil:
			j.cells++
			if ev.Cell.Cached {
				j.cached++
			} else {
				j.cellMs += ev.Cell.WallMillis
				j.maxCell = math.Max(j.maxCell, ev.Cell.WallMillis)
			}
		case ev.Type == "state" && (ev.State == "done" || ev.State == "failed" || ev.State == "cancelled"):
			j.terminal = time.Now()
			j.state = ev.State
			if ev.Error != "" {
				j.state += ": " + ev.Error
			}
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("events: stream ended before a terminal state")
}

// schedule draws the open loop's arrivals for d: round(rate*d) hot and
// cold arrivals each, at uniformly random times, which is a Poisson
// stream conditioned on its count. Fixing the counts keeps the work of a
// run, and the cell store's growth, the same for every seed. Cold seeds
// are derived from the workload seed starting at index firstCold.
func (r *run) schedule(seed uint64, hot, cold float64, d time.Duration, firstCold int) []*job {
	rng := rand.New(rand.NewSource(int64(seed)))
	var out []*job
	add := func(rate float64, isHot bool) {
		n := int(math.Round(rate * d.Seconds()))
		for i := 0; i < n; i++ {
			at := time.Duration(rng.Float64() * float64(d))
			j := &job{hot: isHot, seed: experiments.DefaultSeed, due: time.Time{}.Add(at)}
			if !isHot {
				j.seed = derivedSeed(r.seed, firstCold, experiments.DefaultSeed)
				firstCold++
			}
			out = append(out, j)
		}
	}
	add(hot, true)
	add(cold, false)
	sort.SliceStable(out, func(a, b int) bool { return out[a].due.Before(out[b].due) })
	return out
}

// closedLoop runs jobs in order on clientConns clients, each sending its
// next job as soon as its previous one has been downloaded, and returns
// the time until the last one finished.
func (c *client) closedLoop(jobs []*job) time.Duration {
	start := time.Now()
	next := make(chan *job)
	var wg sync.WaitGroup
	for i := 0; i < clientConns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				j.due = time.Now()
				c.run(j)
			}
		}()
	}
	for _, j := range jobs {
		next <- j
	}
	close(next)
	wg.Wait()
	return time.Since(start)
}

// openLoop sends every job at its due time, regardless of how earlier
// ones are doing, and waits for all of them.
func (c *client) openLoop(jobs []*job) {
	t0 := time.Now().Add(20 * time.Millisecond)
	var wg sync.WaitGroup
	for _, j := range jobs {
		due := t0.Add(j.due.Sub(time.Time{}))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		j.due = due
		j.late = time.Since(due)
		wg.Add(1)
		go func(j *job) {
			defer wg.Done()
			c.run(j)
		}(j)
	}
	wg.Wait()
}

// warm submits the hot job once and returns its table: set-up is not
// over until the hot entry is in the daemon's cell store.
func (r *run) warm(c *client) ([]byte, error) {
	j := &job{hot: true, seed: experiments.DefaultSeed, due: time.Now()}
	c.run(j)
	switch {
	case j.err != nil:
		return nil, j.err
	case j.refused:
		return nil, fmt.Errorf("warm-up job refused")
	case j.cached != 0 || j.cells == 0:
		return nil, fmt.Errorf("warm-up job: %d of %d cells cached; want all executed", j.cached, j.cells)
	}
	return j.tsv, nil
}

// setupDaemon starts a daemon and warms its hot entry, returning the
// set-up time and the hot job's first executed table.
func (r *run) setupDaemon(name string, profiled bool) (*daemonProc, time.Duration, []byte, error) {
	start := time.Now()
	d, err := r.startDaemon(name, profiled)
	if err != nil {
		return nil, 0, nil, err
	}
	c := newClient(d.base, false, nil)
	defer c.close()
	ref, err := r.warm(c)
	if err != nil {
		d.stop()
		return nil, 0, nil, err
	}
	return d, time.Since(start), ref, nil
}

// phase is the outcome of one set of jobs against one daemon.
type phase struct {
	hot, cold []float64 // latency, ms
	late      []float64 // generator lateness, ms
	refused   int
	failed    int
}

// runPhase drives one open loop and checks every job's output.
func (r *run) runPhase(d *daemonProc, jobs []*job, ref []byte, traced bool) *phase {
	c := newClient(d.base, traced, r.tr)
	defer c.close()
	c.openLoop(jobs)
	return r.checkJobs(jobs, ref)
}

// checkJobs sorts finished jobs into latencies, refusals and failures and
// checks their tables: hot downloads must equal the first executed hot
// table, cold ones must be well-formed tables of the artifact.
func (r *run) checkJobs(jobs []*job, ref []byte) *phase {
	p := &phase{}
	art, _ := experiments.Artifacts().Get(jobArtifact)
	for _, j := range jobs {
		p.late = append(p.late, float64(j.late)/float64(time.Millisecond))
		switch {
		case j.refused:
			p.refused++
			continue
		case j.err != nil:
			p.failed++
			r.failures = append(r.failures, fmt.Sprintf("job seed %d: %v", j.seed, j.err))
			continue
		}
		if j.hot {
			p.hot = append(p.hot, j.latencyMs())
			if !bytes.Equal(j.tsv, ref) {
				r.mismatch("hot job %s: download differs from the first executed one", j.id)
			}
		} else {
			p.cold = append(p.cold, j.latencyMs())
			r.checkTSV(art, j.tsv, harness.SizingQuick, j.seed, nil)
		}
	}
	return p
}

// setupSample starts and warms a short-lived daemon and returns its
// set-up time.
func (r *run) setupSample(name string) (time.Duration, error) {
	r.attempted++
	d, setup, ref, err := r.setupDaemon(name, false)
	if err != nil {
		r.opFailed("daemon set-up %s: %v", name, err)
		return 0, err
	}
	d.stop()
	art, _ := experiments.Artifacts().Get(jobArtifact)
	r.checkTSV(art, ref, harness.SizingQuick, experiments.DefaultSeed, r.loadRefs())
	return setup, nil
}

// session is one daemon serving every segment of a run.
type session struct {
	jobs      []*job
	hot, cold []float64 // open-loop latency, ms
	late      []float64 // generator lateness, ms
	// batches are the fixed batches' times, s.
	batches []float64
	// setups are the set-up times, s: the session daemon's and, when
	// sampled, the short-lived daemons'.
	setups []float64
	// cpuSeconds is the session daemon's CPU over the segments.
	cpuSeconds float64
	rssMB      float64
	refused    int
	profile    string
	d          *daemonProc
	ref        []byte
}

// runSession starts one daemon, warms it and serves every segment of
// the run with it, checking every job. A segment is an open-loop phase of an
// equal share of the run's time budget followed by one fixed batch; with
// sampleSetups, a short-lived daemon is started and warmed before each
// segment to time set-up. Spreading batches and set-ups over the run
// averages them over the host's speed, which drifts over tens of
// seconds. Arrival counts are fixed, so the session daemon's cell store
// grows by the same amount on every seed. The daemon is left running.
func (r *run) runSession(name string, traced, sampleSetups bool) *session {
	r.attempted++
	d, setup, ref, err := r.setupDaemon(name, traced)
	if err != nil {
		r.opFailed("daemon set-up: %v", err)
		return nil
	}
	art, _ := experiments.Artifacts().Get(jobArtifact)
	r.checkTSV(art, ref, harness.SizingQuick, experiments.DefaultSeed, r.loadRefs())
	s := &session{setups: []float64{setup.Seconds()}, d: d, ref: ref}

	var profErr chan error
	if traced {
		// The profile's length is fixed when it starts; it outlasts the
		// segments, and the run waits for it.
		s.profile = filepath.Join(r.work, name+".pprof")
		profErr = make(chan error, 1)
		go func() { profErr <- fetchProfile(d.pprof, r.budget+profileAllowance, s.profile) }()
	}
	per := r.budget / segments
	cpu0 := d.cpuSeconds()
	for k := 0; k < segments; k++ {
		if sampleSetups {
			s.d.settle()
			if t, err := r.setupSample(fmt.Sprintf("setup-%d", k)); err == nil {
				s.setups = append(s.setups, t.Seconds())
			}
		}
		// Cold seeds are numbered per segment, the batch's after the open
		// loop's, so that no two cold jobs of a run share a seed.
		jobs := r.schedule(derivedSeed(r.seed, k, 0), hotRate, coldRate, per, 10000*k)
		p := r.runPhase(d, jobs, ref, traced)
		r.attempted += len(jobs)
		r.failedOps += p.refused + p.failed
		s.jobs = append(s.jobs, jobs...)
		s.hot = append(s.hot, p.hot...)
		s.cold = append(s.cold, p.cold...)
		s.late = append(s.late, p.late...)
		s.refused += p.refused

		batch := r.schedule(derivedSeed(r.seed, 1000+k, 0), batchHot, batchCold, time.Second, 10000*k+5000)
		c := newClient(d.base, traced, r.tr)
		wall := c.closedLoop(batch)
		c.close()
		bp := r.checkJobs(batch, ref)
		r.attempted += len(batch)
		r.failedOps += bp.refused + bp.failed
		s.jobs = append(s.jobs, batch...)
		s.batches = append(s.batches, wall.Seconds())
	}
	s.cpuSeconds = d.cpuSeconds() - cpu0
	s.rssMB = d.peakRSSMB()
	if traced {
		if err := <-profErr; err != nil {
			r.opFailed("daemon CPU profile: %v", err)
			s.profile = ""
		}
	}
	return s
}

// daemon runs daemon_mixed.
func (r *run) daemon() {
	if r.traced {
		r.daemonTraced()
		return
	}
	s := r.runSession("daemon", false, true)
	if s == nil {
		return
	}
	defer s.d.stop()
	r.set("wall_s", median(s.batches), len(s.batches))
	r.set("cpu_s", s.cpuSeconds, len(s.jobs))
	r.set("peak_rss_mb", s.rssMB, 1)
	r.set("setup_s", lowQuartile(s.setups), len(s.setups))
	r.note("set-up samples, ms: %s", msList(s.setups))
	r.note("batches of %d hot and %d cold jobs: %.1f jobs/s", batchHot, batchCold, (batchHot+batchCold)/median(s.batches))
	r.note("open loop %.0f hot + %.0f cold jobs/s: hot p50 %.3f ms, p99 %.3f ms (n=%d); cold p50 %.3f ms, p90 %.3f ms (n=%d)",
		hotRate, coldRate, percentile(s.hot, 50), percentile(s.hot, 99), len(s.hot), percentile(s.cold, 50), percentile(s.cold, 90), len(s.cold))
	r.note("loadgen late p99 %.3f ms, refused %d", percentile(s.late, 99), s.refused)

	// Capacity: the highest rung of the ladder at which hot p99 stays
	// within the limit, nothing is refused and the backlog does not grow.
	capacity := 0.0
	for i, mult := range capacityLadder {
		rung := r.schedule(derivedSeed(r.seed, 100+i, 0), hotRate*mult, coldRate*mult, rungSeconds*time.Second, 1000000+1000*i)
		rp := r.runPhase(s.d, rung, s.ref, false)
		r.attempted += len(rung)
		r.failedOps += rp.failed
		p99 := percentile(rp.hot, 99)
		growing := backlogGrows(rung)
		r.note("capacity rung %.0f jobs/s: hot p99 %.1f ms (n=%d), refused %d, backlog growing %v",
			(hotRate+coldRate)*mult, p99, len(rp.hot), rp.refused, growing)
		if rp.refused > 0 || rp.failed > 0 || p99 > hotLimitMs || growing {
			break
		}
		capacity = (hotRate + coldRate) * mult
	}
	r.note("capacity_jobs_s %.0f (hot p99 limit %.0f ms, ladder %v x %.0f jobs/s)", capacity, hotLimitMs, capacityLadder, hotRate+coldRate)
}

// backlogGrows reports whether jobs finished later and later behind
// their due times over the rung: the last third's median latency is
// more than twice the first third's and above the limit.
func backlogGrows(jobs []*job) bool {
	var lat []float64
	for _, j := range jobs {
		if j.err == nil && !j.refused && !j.terminal.IsZero() {
			lat = append(lat, j.latencyMs())
		}
	}
	if len(lat) < 6 {
		return false
	}
	n := len(lat) / 3
	first, last := median(lat[:n]), median(lat[len(lat)-n:])
	return last > 2*first && last > hotLimitMs
}

// daemonTraced is the traced daemon run: one session against a plain
// daemon and one against a profiled daemon whose job views are also
// read, then the layer probes.
func (r *run) daemonTraced() {
	plain := r.runSession("untraced", false, false)
	if plain == nil {
		return
	}
	plain.d.stop()
	s := r.runSession("traced", true, false)
	if s == nil {
		return
	}
	s.d.stop()
	if s.profile != "" {
		r.layerCPU(s.profile)
	}

	var admit, queue, runMs, overhead []float64
	cells, cached := 0, 0
	busy, wait, maxCell := 0.0, 0.0, 0.0
	for _, j := range s.jobs {
		if j.err != nil || j.refused {
			continue
		}
		admit = append(admit, float64(j.admit)/float64(time.Millisecond))
		cells += j.cells
		cached += j.cached
		busy += j.cellMs / 1000
		maxCell = math.Max(maxCell, j.maxCell/1000)
		if v := j.view; v != nil {
			q := v.Started.Sub(v.Created)
			run := v.Finished.Sub(*v.Started)
			wait += q.Seconds()
			queue = append(queue, float64(q)/float64(time.Millisecond))
			runMs = append(runMs, float64(run)/float64(time.Millisecond))
			overhead = append(overhead, float64(run)/float64(time.Millisecond)-j.cellMs)
		}
	}
	r.set("harness.cells", float64(cells), len(admit))
	r.set("harness.cell_busy_s", busy, cells-cached)
	r.set("harness.cell_wait_s", wait, len(queue))
	r.set("harness.cell_max_s", maxCell, cells-cached)
	r.set("harness.sink_s", 0, 0)
	for _, a := range experiments.Artifacts().Artifacts() {
		v := 0.0
		if a.Name == jobArtifact {
			v = busy
		}
		r.set("harness.artifact."+a.Name+"_s", v, cells-cached)
	}
	r.set("store.lookups", float64(cells), cells)
	r.set("store.puts", float64(cells-cached), cells-cached)
	r.set("store.put_s", 0, 0)
	r.set("store.save_s", 0, 0)
	r.set("store.hit_ratio", float64(cached)/float64(max(cells, 1)), cells)
	r.set("service.admit_p99_ms", percentile(admit, 99), len(admit))
	r.set("service.queue_p99_ms", percentile(queue, 99), len(queue))
	r.set("service.run_p50_ms", percentile(runMs, 50), len(runMs))
	r.set("service.overhead_p50_ms", percentile(overhead, 50), len(overhead))
	r.set("tenant.refused", float64(s.refused), len(s.jobs))
	r.set("loadgen.late_p99_ms", percentile(s.late, 99), len(s.late))
	r.set("trace.overhead_s", median(s.batches)-median(plain.batches), len(s.batches))
	r.note("untraced cold p50 %.3f ms, traced %.3f ms; untraced hot p50 %.3f ms, traced %.3f ms",
		median(plain.cold), median(s.cold), median(plain.hot), median(s.hot))
	r.probes()
	r.writeSpans()
}

// fetchProfile takes a CPU profile of the daemon over d through its
// profiling endpoint.
func fetchProfile(addr string, d time.Duration, path string) error {
	secs := int(math.Ceil(d.Seconds()))
	ctx, cancel := context.WithTimeout(context.Background(), d+60*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, fmt.Sprintf("http://%s/debug/pprof/profile?seconds=%d", addr, secs), nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("profile: %s", resp.Status)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

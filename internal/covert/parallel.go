package covert

import (
	"fmt"

	"coherentleak/internal/cache"
	"coherentleak/internal/kernel"
	"coherentleak/internal/machine"
	"coherentleak/internal/sim"
	"coherentleak/internal/stats"
)

// ParallelChannel is a bandwidth extension beyond the paper: the shared
// page holds 64 cache lines, and every line can carry the §VII protocol
// independently. The trojan runs one schedule per lane; the spy probes
// all lanes each period and decodes them in parallel, multiplying the
// per-period payload. (The paper's §VIII-D closes with "more
// sophisticated symbol encoding mechanisms may achieve even higher
// transmission rates" — this is the natural next step an adversary would
// take.)
type ParallelChannel struct {
	Config machine.Config
	// Scenario applies to every lane.
	Scenario Scenario
	// Params apply to every lane; the spy's period grows with Lanes, so
	// effective rates do not scale perfectly linearly.
	Params Params
	// Lanes is the number of cache lines used (1..16).
	Lanes                  int
	Mode                   SharingMode
	WorldSeed, PatternSeed uint64
	Bands                  *Bands
	PreRun                 func(*Session)
}

// NewParallelChannel returns a parallel channel with the default testbed
// and four lanes.
func NewParallelChannel(sc Scenario, lanes int) *ParallelChannel {
	return &ParallelChannel{
		Config:      machine.DefaultConfig(),
		Scenario:    sc,
		Params:      DefaultParams(),
		Lanes:       lanes,
		Mode:        ShareKSM,
		WorldSeed:   1,
		PatternSeed: 0xc0fe,
	}
}

// ParallelResult reports a multi-lane transmission.
type ParallelResult struct {
	TxBits, RxBits []byte
	// PerLane holds each lane's decoded bits.
	PerLane  [][]byte
	Accuracy float64
	Duration sim.Cycles
	RawKbps  float64
	Synced   bool
}

// Run transmits bits striped round-robin across the lanes.
func (c *ParallelChannel) Run(bits []byte) (*ParallelResult, error) {
	if c.Lanes < 1 || c.Lanes > 16 {
		return nil, fmt.Errorf("covert: lanes must be 1..16, got %d", c.Lanes)
	}
	if !c.Scenario.Valid() {
		return nil, fmt.Errorf("covert: invalid scenario")
	}
	if err := c.Params.Validate(); err != nil {
		return nil, err
	}
	if c.Params.Probe == ProbeEviction {
		return nil, fmt.Errorf("covert: parallel lanes share an LLC set region; eviction probing is not supported")
	}

	sess, err := NewSession(c.Config, c.WorldSeed, c.PatternSeed, c.Mode)
	if err != nil {
		return nil, err
	}
	defer sess.World.Drain() // every exit path; see Channel.Run
	if !sess.Supports(c.Scenario) {
		return nil, fmt.Errorf("covert: machine cannot host scenario %s", c.Scenario.Name())
	}
	var bands Bands
	if c.Bands != nil {
		bands = *c.Bands
	} else {
		bands, err = Calibrate(c.Config, c.WorldSeed+7777, 200, c.Params.BandMargin)
		if err != nil {
			return nil, err
		}
	}
	if c.PreRun != nil {
		c.PreRun(sess)
	}

	// Stripe the payload: lane i carries bits i, i+k, i+2k, ... padded
	// with zeros so every lane runs the same number of periods.
	laneBits := make([][]byte, c.Lanes)
	for i, b := range bits {
		laneBits[i%c.Lanes] = append(laneBits[i%c.Lanes], b)
	}
	maxLen := 0
	for _, lb := range laneBits {
		if len(lb) > maxLen {
			maxLen = len(lb)
		}
	}
	for i := range laneBits {
		for len(laneBits[i]) < maxLen {
			laneBits[i] = append(laneBits[i], 0)
		}
	}

	tr := newParallelTrojan(sess, c.Scenario, c.Params, laneBits)
	sp := newParallelSpy(sess, c.Scenario, c.Params, bands, c.Lanes)

	est := c.Params.EstimatePeriodCycles(c.Config, c.Scenario) * float64(c.Lanes)
	limit := sim.Cycles(est*float64(tr.periods)*50) + 100_000_000
	if err := sess.World.RunUntilDeadline(limit, func() bool { return sp.done }); err != nil {
		return nil, err
	}
	tr.stop()

	res := &ParallelResult{
		TxBits:  append([]byte(nil), bits...),
		PerLane: sp.Bits,
		Synced:  sp.Synced,
	}
	// Reassemble: take bit j from lane j%k at index j/k when decoded.
	for j := 0; j < len(bits); j++ {
		lane, idx := j%c.Lanes, j/c.Lanes
		if idx < len(sp.Bits[lane]) {
			res.RxBits = append(res.RxBits, sp.Bits[lane][idx])
		}
	}
	res.Accuracy = stats.Accuracy(res.TxBits, res.RxBits)
	if sp.EndCycle > sp.StartCycle {
		res.Duration = sp.EndCycle - sp.StartCycle
		res.RawKbps = stats.Kbps(len(bits), c.Config.CyclesToSeconds(res.Duration))
	}
	return res, nil
}

// laneVA returns each side's virtual address of lane i's line.
func laneVA(base uint64, lane int) uint64 { return base + uint64(lane)*cache.LineSize }

// parallelTrojan runs one schedule per lane over shared worker threads.
type parallelTrojan struct {
	sess    *Session
	scheds  []schedule
	bases   []uint64
	pollGap sim.Cycles
	periods int
	threads []*kernel.Thread
	stopped bool
}

func newParallelTrojan(sess *Session, sc Scenario, p Params, laneBits [][]byte) *parallelTrojan {
	t := &parallelTrojan{sess: sess, pollGap: p.Ts / 3}
	if t.pollGap < 24 {
		t.pollGap = 24
	}
	for lane, bits := range laneBits {
		t.scheds = append(t.scheds, buildSchedule(sc, p, bits))
		t.bases = append(t.bases, sess.Mach.FlushEpoch(laneVA(sess.SharedPA(), lane)))
		if n := t.scheds[lane].periods(); n > t.periods {
			t.periods = n
		}
	}
	local, remote := sc.TrojanThreads()
	for i := 0; i < local; i++ {
		t.spawn(Local, i)
	}
	for i := 0; i < remote; i++ {
		t.spawn(Remote, i)
	}
	return t
}

func (t *parallelTrojan) spawn(loc Location, idx int) {
	core := t.sess.workerCores(loc)[idx]
	basePA := t.sess.SharedPA()
	baseVA := t.sess.TrojanVA
	rng := t.sess.WorkerRand()
	th := t.sess.Kern.Spawn(t.sess.TrojanProc, core, workerName(loc, idx), func(kt *kernel.Thread) {
		for !kt.StopRequested() && !t.stopped {
			t.sess.maybePreempt(kt, rng, t.pollGap)
			anyLive := false
			for lane := range t.scheds {
				period := t.sess.Mach.FlushEpoch(laneVA(basePA, lane)) - t.bases[lane]
				pl, live := t.scheds[lane].at(period)
				if !live {
					continue
				}
				anyLive = true
				if pl.Loc == loc && idx < pl.Threads() {
					kt.Load(laneVA(baseVA, lane))
				}
			}
			if !anyLive {
				period0 := t.sess.Mach.FlushEpoch(basePA) - t.bases[0]
				if period0 > uint64(t.periods)+64 {
					return
				}
			}
			kt.Advance(t.pollGap)
		}
	})
	t.threads = append(t.threads, th)
}

func (t *parallelTrojan) stop() {
	t.stopped = true
	for _, th := range t.threads {
		t.sess.World.StopThread(th.Sim)
	}
}

// parallelSpy probes every lane each period and decodes them separately.
type parallelSpy struct {
	sess   *Session
	sc     Scenario
	params Params
	bands  Bands
	lanes  int

	samples [][]Sample
	Bits    [][]byte
	Synced  bool

	StartCycle, EndCycle sim.Cycles
	done                 bool
}

func newParallelSpy(sess *Session, sc Scenario, p Params, bands Bands, lanes int) *parallelSpy {
	s := &parallelSpy{
		sess: sess, sc: sc, params: p, bands: bands, lanes: lanes,
		samples: make([][]Sample, lanes),
		Bits:    make([][]byte, lanes),
	}
	sess.Kern.Spawn(sess.SpyProc, sess.SpyCore, "spy", func(kt *kernel.Thread) {
		defer func() { s.done = true }()
		s.run(kt)
	})
	return s
}

// measure probes all lanes once: flush every lane, wait, timed-load every
// lane.
func (s *parallelSpy) measure(kt *kernel.Thread) []Sample {
	for lane := 0; lane < s.lanes; lane++ {
		kt.Flush(laneVA(s.sess.SpyVA, lane))
	}
	kt.Advance(s.params.Ts)
	out := make([]Sample, s.lanes)
	for lane := 0; lane < s.lanes; lane++ {
		acc := kt.Load(laneVA(s.sess.SpyVA, lane))
		out[lane] = Sample{
			Cycle:   kt.Now(),
			Latency: acc.Latency,
			Class:   s.bands.Classify(s.sc, acc.Latency),
		}
	}
	return out
}

func (s *parallelSpy) run(kt *kernel.Thread) {
	p := s.params
	// Poll for sync on lane 0.
	var first []Sample
	for polls := 0; ; polls++ {
		if polls > p.MaxPeriods || kt.StopRequested() {
			return
		}
		smp := s.measure(kt)
		if smp[0].Class == ClassBound {
			first = smp
			break
		}
	}
	s.Synced = true
	s.StartCycle = kt.Now()
	for lane := range first {
		s.samples[lane] = append(s.samples[lane], first[lane])
	}

	outOfBand := 0
	for len(s.samples[0]) < p.MaxPeriods && !kt.StopRequested() {
		smp := s.measure(kt)
		allIdle := true
		for lane := range smp {
			s.samples[lane] = append(s.samples[lane], smp[lane])
			if smp[lane].Class != ClassOther {
				allIdle = false
			}
		}
		if allIdle {
			outOfBand++
			if outOfBand >= p.EndRun {
				break
			}
		} else {
			outOfBand = 0
		}
	}
	s.EndCycle = kt.Now()
	for lane := range s.samples {
		s.Bits[lane] = translate(s.samples[lane], p)
	}
}

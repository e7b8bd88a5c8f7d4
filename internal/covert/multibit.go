package covert

import (
	"fmt"

	"coherentleak/internal/kernel"
	"coherentleak/internal/machine"
	"coherentleak/internal/sim"
	"coherentleak/internal/stats"
)

// SymbolMap is the §VIII-D encoding: each 2-bit value maps to one of the
// four (location, coherence state) combination pairs, so every
// transmitted symbol carries two bits.
var SymbolMap = [4]Placement{
	0: LShared, // 00
	1: LExcl,   // 01
	2: RShared, // 10
	3: RExcl,   // 11
}

// symbolOf returns the symbol index whose placement is pl.
func symbolOf(pl Placement) (int, bool) {
	for i, p := range SymbolMap {
		if p == pl {
			return i, true
		}
	}
	return 0, false
}

// MultiBitParams tune the 2-bit-symbol channel.
type MultiBitParams struct {
	// Cs is how many spy periods each symbol's placement is held.
	Cs int
	// Gap is how many idle periods separate symbols (the spy sees its
	// own miss-to-DRAM latency, delimiting symbol runs).
	Gap int
	// Ts is the spy sampling interval, as in the binary channel.
	Ts sim.Cycles
	// SyncPeriods is the preamble length (held in RExcl, the most
	// distinctive band).
	SyncPeriods int
	// EndRun ends reception after this many idle periods — it must
	// exceed Gap or the inter-symbol gaps terminate reception.
	EndRun int
	// BandMargin widens calibrated bands (reporting only; classification
	// is nearest-center).
	BandMargin float64
	// MaxPeriods bounds reception.
	MaxPeriods int
}

// DefaultMultiBitParams returns the reliable §VIII-D operating point.
func DefaultMultiBitParams() MultiBitParams {
	return MultiBitParams{
		Cs:          3,
		Gap:         2,
		Ts:          750,
		SyncPeriods: 20,
		EndRun:      8,
		BandMargin:  4,
		MaxPeriods:  2_000_000,
	}
}

// Validate checks the parameters.
func (p MultiBitParams) Validate() error {
	if p.Cs <= 0 || p.Gap <= 0 {
		return fmt.Errorf("covert: multibit Cs/Gap must be positive")
	}
	if p.EndRun <= p.Gap {
		return fmt.Errorf("covert: EndRun (%d) must exceed Gap (%d) or symbol gaps end reception", p.EndRun, p.Gap)
	}
	if p.Ts == 0 {
		return fmt.Errorf("covert: zero sampling interval")
	}
	if p.SyncPeriods <= p.Cs+1 {
		return fmt.Errorf("covert: preamble must be longer than a symbol run")
	}
	return nil
}

// PeriodsPerSymbol returns the period cost of one 2-bit symbol.
func (p MultiBitParams) PeriodsPerSymbol() float64 { return float64(p.Cs + p.Gap) }

// EstimateKbps predicts the raw bit rate of the 2-bit channel.
func (p MultiBitParams) EstimateKbps(cfg machine.Config) float64 {
	lat := cfg.Latencies
	// Average load latency across the four bands.
	var sum sim.Cycles
	for _, pl := range AllPlacements {
		sum += placementBaseLatency(cfg, pl)
	}
	period := float64(lat.FlushBase) + float64(p.Ts) + float64(sum)/4
	return cfg.ClockHz / (period * p.PeriodsPerSymbol() / 2) / 1e3
}

// MultiBitParamsForRate solves for Ts given a target bit rate.
func MultiBitParamsForRate(cfg machine.Config, targetKbps float64) MultiBitParams {
	p := DefaultMultiBitParams()
	if targetKbps <= 0 {
		return p
	}
	lat := cfg.Latencies
	var sum sim.Cycles
	for _, pl := range AllPlacements {
		sum += placementBaseLatency(cfg, pl)
	}
	overhead := float64(lat.FlushBase) + float64(sum)/4
	for _, st := range []struct{ cs, gap int }{{3, 2}, {2, 1}, {1, 1}} {
		p.Cs, p.Gap = st.cs, st.gap
		cyclesPerSymbol := cfg.ClockHz / (targetKbps * 1e3) * 2
		ts := cyclesPerSymbol/p.PeriodsPerSymbol() - overhead
		if ts >= 64 {
			p.Ts = sim.Cycles(ts)
			return p
		}
	}
	p.Ts = 64
	return p
}

// buildSymbolSchedule compiles the symbol stream: an RExcl preamble, then
// per symbol Cs periods of its placement followed by Gap idle periods.
// Idle periods are encoded as a nil placement (see symbolSchedule.at).
func buildSymbolSchedule(p MultiBitParams, symbols []int) symbolSchedule {
	var out []symbolSlot
	for i := 0; i < p.SyncPeriods; i++ {
		out = append(out, symbolSlot{pl: RExcl, active: true})
	}
	// Preamble/data separator.
	for i := 0; i < p.Gap; i++ {
		out = append(out, symbolSlot{})
	}
	for _, s := range symbols {
		for i := 0; i < p.Cs; i++ {
			out = append(out, symbolSlot{pl: SymbolMap[s&3], active: true})
		}
		for i := 0; i < p.Gap; i++ {
			out = append(out, symbolSlot{})
		}
	}
	return symbolSchedule{slots: out}
}

type symbolSlot struct {
	pl     Placement
	active bool
}

type symbolSchedule struct {
	slots []symbolSlot
}

func (s symbolSchedule) at(i uint64) (Placement, bool, bool) {
	if i >= uint64(len(s.slots)) {
		return Placement{}, false, false // past the end: idle forever
	}
	sl := s.slots[i]
	return sl.pl, sl.active, true
}

// MultiBitChannel is the §VIII-D 2-bit-symbol channel.
type MultiBitChannel struct {
	Config                 machine.Config
	Params                 MultiBitParams
	Mode                   SharingMode
	WorldSeed, PatternSeed uint64
	Bands                  *Bands
	PreRun                 func(*Session)
}

// NewMultiBitChannel returns the default-configured 2-bit channel.
func NewMultiBitChannel() *MultiBitChannel {
	return &MultiBitChannel{
		Config:      machine.DefaultConfig(),
		Params:      DefaultMultiBitParams(),
		Mode:        ShareKSM,
		WorldSeed:   1,
		PatternSeed: 0xc0fe,
	}
}

// MultiBitResult is the outcome of a 2-bit-symbol transmission.
type MultiBitResult struct {
	TxBits, RxBits []byte
	TxSymbols      []int
	RxSymbols      []int
	Samples        []Sample
	SymbolTrace    []int // classified symbol per sample, -1 = idle
	Accuracy       float64
	Duration       sim.Cycles
	RawKbps        float64
	Synced         bool
}

// Run transmits bits two per symbol. Odd-length inputs are rejected.
func (c *MultiBitChannel) Run(bits []byte) (*MultiBitResult, error) {
	if len(bits)%2 != 0 {
		return nil, fmt.Errorf("covert: multibit payload must have even length, got %d", len(bits))
	}
	if err := c.Params.Validate(); err != nil {
		return nil, err
	}
	if c.Config.Sockets < 2 {
		return nil, fmt.Errorf("covert: the 2-bit channel needs both sockets (4 bands)")
	}
	symbols := make([]int, len(bits)/2)
	for i := range symbols {
		symbols[i] = int(bits[2*i])<<1 | int(bits[2*i+1])
	}

	sess, err := NewSession(c.Config, c.WorldSeed, c.PatternSeed, c.Mode)
	if err != nil {
		return nil, err
	}
	defer sess.World.Drain() // every exit path; see Channel.Run
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

	sched := buildSymbolSchedule(c.Params, symbols)
	tr := newMultiBitTrojan(sess, c.Params, sched)
	sp := newMultiBitSpy(sess, c.Params, bands)

	limit := sim.Cycles(float64(len(sched.slots)+c.Params.MaxPeriods/100)*3000) + 100_000_000
	if err := sess.World.RunUntilDeadline(limit, func() bool { return sp.done }); err != nil {
		return nil, err
	}
	tr.stop()

	res := &MultiBitResult{
		TxBits:      append([]byte(nil), bits...),
		TxSymbols:   symbols,
		RxSymbols:   sp.Symbols,
		Samples:     sp.Samples,
		SymbolTrace: sp.Trace,
		Synced:      sp.Synced,
	}
	for _, s := range sp.Symbols {
		res.RxBits = append(res.RxBits, byte(s>>1)&1, byte(s)&1)
	}
	res.Accuracy = stats.Accuracy(res.TxBits, res.RxBits)
	if sp.EndCycle > sp.StartCycle {
		res.Duration = sp.EndCycle - sp.StartCycle
		res.RawKbps = stats.Kbps(len(bits), c.Config.CyclesToSeconds(res.Duration))
	}
	return res, nil
}

// multiBitTrojan reuses the binary trojan's worker mechanics with the
// symbol schedule; all four workers are always spawned.
type multiBitTrojan struct {
	sess      *Session
	sched     symbolSchedule
	baseEpoch uint64
	pollGap   sim.Cycles
	threads   []*kernel.Thread
	stopped   bool
}

func newMultiBitTrojan(sess *Session, p MultiBitParams, sched symbolSchedule) *multiBitTrojan {
	t := &multiBitTrojan{
		sess:      sess,
		sched:     sched,
		baseEpoch: sess.Mach.FlushEpoch(sess.SharedPA()),
		pollGap:   p.Ts / 3,
	}
	if t.pollGap < 24 {
		t.pollGap = 24
	}
	for _, loc := range []Location{Local, Remote} {
		for i := 0; i < 2; i++ {
			t.spawn(loc, i)
		}
	}
	return t
}

func (t *multiBitTrojan) spawn(loc Location, idx int) {
	core := t.sess.workerCores(loc)[idx]
	pa := t.sess.SharedPA()
	rng := t.sess.WorkerRand()
	th := t.sess.Kern.Spawn(t.sess.TrojanProc, core, workerName(loc, idx), func(kt *kernel.Thread) {
		for !kt.StopRequested() && !t.stopped {
			// An interruption may fire here; after waking the worker
			// immediately polls (the scheduler runs it for at least one
			// quantum), so bursts do not chain.
			t.sess.maybePreempt(kt, rng, t.pollGap)
			period := t.sess.Mach.FlushEpoch(pa) - t.baseEpoch
			pl, active, live := t.sched.at(period)
			if !live && period > uint64(len(t.sched.slots))+64 {
				return
			}
			if active && pl.Loc == loc && idx < pl.Threads() {
				kt.Load(t.sess.TrojanVA)
			}
			kt.Advance(t.pollGap)
		}
	})
	t.threads = append(t.threads, th)
}

func (t *multiBitTrojan) stop() {
	t.stopped = true
	for _, th := range t.threads {
		t.sess.World.StopThread(th.Sim)
	}
}

// multiBitSpy times loads and classifies them into one of the four
// placement bands (nearest center) or idle (nearest DRAM).
type multiBitSpy struct {
	sess   *Session
	params MultiBitParams
	bands  Bands

	Samples []Sample
	Trace   []int // symbol index per sample, -1 idle
	Symbols []int
	Synced  bool

	StartCycle, EndCycle sim.Cycles
	done                 bool
}

func newMultiBitSpy(sess *Session, p MultiBitParams, bands Bands) *multiBitSpy {
	s := &multiBitSpy{sess: sess, params: p, bands: bands}
	sess.Kern.Spawn(sess.SpyProc, sess.SpyCore, "spy", func(kt *kernel.Thread) {
		defer func() { s.done = true }()
		s.run(kt)
	})
	return s
}

// classify returns the nearest placement's symbol index, or -1 for idle.
func (s *multiBitSpy) classify(lat sim.Cycles) int {
	x := float64(lat)
	best, bestDist := -1, abs(x-s.bands.DRAM.Center)
	for i, pl := range SymbolMap {
		if d := abs(x - s.bands.ByPlacement[pl].Center); d < bestDist {
			best, bestDist = i, d
		}
	}
	return best
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func (s *multiBitSpy) run(kt *kernel.Thread) {
	p := s.params
	rexcl, _ := symbolOf(RExcl)

	// Poll for the RExcl preamble.
	for polls := 0; ; polls++ {
		if polls > p.MaxPeriods || kt.StopRequested() {
			return
		}
		lat := s.measure(kt)
		if s.classify(lat) == rexcl {
			break
		}
	}
	s.Synced = true
	s.StartCycle = kt.Now()

	// Reception.
	idle := 0
	preambleSeen := 1
	for len(s.Samples) < p.MaxPeriods && !kt.StopRequested() {
		lat := s.measure(kt)
		sym := s.classify(lat)
		s.Samples = append(s.Samples, Sample{Cycle: kt.Now(), Latency: lat})
		s.Trace = append(s.Trace, sym)
		if sym == -1 {
			idle++
			if idle >= p.EndRun {
				break
			}
		} else {
			idle = 0
		}
		_ = preambleSeen
	}
	s.EndCycle = kt.Now()

	// Translation: runs of equal symbols separated by idle gaps; the
	// first run is the preamble and is dropped.
	s.Symbols = decodeSymbolRuns(s.Trace)
}

func (s *multiBitSpy) measure(kt *kernel.Thread) sim.Cycles {
	kt.Flush(s.sess.SpyVA)
	kt.Advance(s.params.Ts)
	return kt.Load(s.sess.SpyVA).Latency
}

// decodeSymbolRuns converts the per-sample symbol trace into symbols: a
// maximal run of non-idle samples is one symbol (majority vote over the
// run), and the first run (the preamble) is discarded.
func decodeSymbolRuns(trace []int) []int {
	var runs []int
	i := 0
	for i < len(trace) {
		for i < len(trace) && trace[i] == -1 {
			i++
		}
		if i >= len(trace) {
			break
		}
		votes := map[int]int{}
		for i < len(trace) && trace[i] != -1 {
			votes[trace[i]]++
			i++
		}
		best, bestN := 0, -1
		for sym, n := range votes {
			if n > bestN || (n == bestN && sym < best) {
				best, bestN = sym, n
			}
		}
		runs = append(runs, best)
	}
	if len(runs) > 0 {
		runs = runs[1:] // drop the preamble run
	}
	return runs
}

package covert

import (
	"fmt"

	"coherentleak/internal/machine"
	"coherentleak/internal/sim"
	"coherentleak/internal/stats"
)

// Channel is a configured covert timing channel between a trojan and a
// spy on one simulated machine. The zero value is not usable; populate
// Config/Scenario/Params (or use NewChannel for defaults).
type Channel struct {
	// Config is the machine to attack.
	Config machine.Config
	// Scenario selects the Table I configuration.
	Scenario Scenario
	// Params are the transmission knobs.
	Params Params
	// Mode selects KSM or explicit page sharing.
	Mode SharingMode
	// WorldSeed and PatternSeed pin the run's determinism.
	WorldSeed, PatternSeed uint64
	// Bands overrides calibration when non-nil (e.g. reuse across runs).
	Bands *Bands
	// PreRun, when non-nil, is invoked on the constructed session before
	// the trojan and spy start — the hook the noise workloads and the
	// defenses attach through.
	PreRun func(*Session)
	// MaxCycles bounds the run (0 = a generous default).
	MaxCycles sim.Cycles
}

// NewChannel returns a channel with the paper's testbed machine, default
// parameters and KSM sharing.
func NewChannel(sc Scenario) *Channel {
	return &Channel{
		Config:      machine.DefaultConfig(),
		Scenario:    sc,
		Params:      DefaultParams(),
		Mode:        ShareKSM,
		WorldSeed:   1,
		PatternSeed: 0xc0fe,
	}
}

// Result is the outcome of one transmission.
type Result struct {
	Scenario Scenario
	Params   Params

	// TxBits is what the trojan sent; RxBits what the spy decoded.
	TxBits, RxBits []byte
	// Samples is the spy's reception trace (for Figure 7-style plots).
	Samples []Sample

	// Accuracy is the paper's raw-bit accuracy (§VIII-B).
	Accuracy float64
	// Synced reports whether the spy locked on at all.
	Synced bool
	// SyncCycles is the synchronization handshake cost (§VII-A's ~90 ms).
	SyncCycles sim.Cycles
	// Duration is the reception window in cycles.
	Duration sim.Cycles
	// RawKbps is transmitted raw bits over the reception window.
	RawKbps float64
	// AttemptedKbps is the rate the parameters aimed for.
	AttemptedKbps float64
	// Bands is the calibration the spy used.
	Bands Bands
}

// BitErrors returns the number of mismatched positions (counting length
// differences).
func (r *Result) BitErrors() int {
	n := len(r.TxBits)
	if len(r.RxBits) > n {
		n = len(r.RxBits)
	}
	errs := 0
	for i := 0; i < n; i++ {
		var a, b byte = 2, 3
		if i < len(r.TxBits) {
			a = r.TxBits[i]
		}
		if i < len(r.RxBits) {
			b = r.RxBits[i]
		}
		if a != b {
			errs++
		}
	}
	return errs
}

// Run transmits bits (values 0/1) from the trojan to the spy and returns
// the reception outcome.
func (c *Channel) Run(bits []byte) (*Result, error) {
	if !c.Scenario.Valid() {
		return nil, fmt.Errorf("covert: scenario %v uses one placement for both roles", c.Scenario)
	}
	if err := c.Params.Validate(); err != nil {
		return nil, err
	}
	for i, b := range bits {
		if b > 1 {
			return nil, fmt.Errorf("covert: bit %d has non-binary value %d", i, b)
		}
	}

	sess, err := NewSession(c.Config, c.WorldSeed, c.PatternSeed, c.Mode)
	if err != nil {
		return nil, err
	}
	// Drain on every exit path — a drive error or a re-panicked thread
	// failure included — so parked threads never leak their goroutines.
	defer sess.World.Drain()
	if !sess.Supports(c.Scenario) {
		return nil, fmt.Errorf("covert: machine cannot host scenario %s (no remote socket)", c.Scenario.Name())
	}

	bands := Bands{}
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

	var evictionSet []uint64
	if c.Params.Probe == ProbeEviction {
		if c.Scenario.Comm.Loc != Local || c.Scenario.Bound.Loc != Local {
			return nil, fmt.Errorf("covert: eviction probing reaches only the spy's socket; scenario %s uses remote placements", c.Scenario.Name())
		}
		if !c.Config.InclusiveLLC {
			return nil, fmt.Errorf("covert: eviction probing needs an inclusive LLC to invalidate private copies")
		}
		evictionSet, err = sess.BuildSpyEvictionSet()
		if err != nil {
			return nil, err
		}
	}

	tr := newTrojan(sess, c.Scenario, c.Params, bits)
	sp := newSpy(sess, c.Scenario, c.Params, bands, evictionSet)

	limit := c.MaxCycles
	if limit == 0 {
		// Generous: 50x the expected transmission length.
		est := c.Params.EstimatePeriodCycles(c.Config, c.Scenario)
		limit = sim.Cycles(est*float64(tr.sched.periods())*50) + 50_000_000
	}
	err = sess.World.RunUntilDeadline(limit, func() bool { return sp.done })
	if err != nil {
		return nil, err
	}
	tr.stop()

	res := &Result{
		Scenario:      c.Scenario,
		Params:        c.Params,
		TxBits:        append([]byte(nil), bits...),
		RxBits:        sp.Bits,
		Samples:       sp.Samples,
		Synced:        sp.Synced,
		SyncCycles:    sp.SyncCycles,
		Bands:         bands,
		AttemptedKbps: c.Params.EstimateKbps(c.Config, c.Scenario),
	}
	res.Accuracy = stats.Accuracy(res.TxBits, res.RxBits)
	if sp.EndCycle > sp.StartCycle {
		res.Duration = sp.EndCycle - sp.StartCycle
		res.RawKbps = stats.Kbps(len(bits), c.Config.CyclesToSeconds(res.Duration))
	}
	return res, nil
}

// RunText transmits a UTF-8 string MSB-first and returns the result plus
// the decoded text (best-effort: decoding truncates to whole bytes).
func (c *Channel) RunText(msg string) (*Result, string, error) {
	res, err := c.Run(TextToBits(msg))
	if err != nil {
		return nil, "", err
	}
	return res, BitsToText(res.RxBits), nil
}

// TextToBits expands a string to bits, MSB first.
func TextToBits(msg string) []byte {
	out := make([]byte, 0, 8*len(msg))
	for _, b := range []byte(msg) {
		for i := 7; i >= 0; i-- {
			out = append(out, (b>>uint(i))&1)
		}
	}
	return out
}

// BitsToText packs bits (MSB first) into a string, dropping a trailing
// partial byte.
func BitsToText(bits []byte) string {
	n := len(bits) / 8
	out := make([]byte, n)
	for i := 0; i < n; i++ {
		var v byte
		for j := 0; j < 8; j++ {
			v = v<<1 | bits[i*8+j]&1
		}
		out[i] = v
	}
	return string(out)
}

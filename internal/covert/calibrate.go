package covert

import (
	"fmt"

	"coherentleak/internal/machine"
	"coherentleak/internal/sim"
	"coherentleak/internal/stats"
)

// probeAddr is the physical line the calibration micro-benchmark times.
// Calibration drives the machine directly (no OS layer): the §V
// micro-benchmark measures hardware, not processes.
const probeAddr = uint64(0x400000)

// MeasurePlacement runs the §V micro-benchmark: n timed loads from the
// observer core with the block placed in pl before each, returning the
// observed latencies in cycles. extra, when non-nil, is invoked once on
// the world before measurement (e.g. to attach background noise threads).
func MeasurePlacement(cfg machine.Config, seed uint64, pl Placement, n int, extra func(*sim.World, *machine.Machine)) ([]float64, error) {
	if pl.Loc == Remote && cfg.Sockets < 2 {
		return nil, fmt.Errorf("covert: remote placement needs 2 sockets")
	}
	return measure(cfg, seed, n, extra, func(th *sim.Thread, m *machine.Machine) {
		placeBlock(th, m, pl, probeAddr)
	})
}

// MeasureDRAM measures the spy's own miss-to-memory latency (the
// out-of-band class).
func MeasureDRAM(cfg machine.Config, seed uint64, n int, extra func(*sim.World, *machine.Machine)) ([]float64, error) {
	return measure(cfg, seed, n, extra, func(th *sim.Thread, m *machine.Machine) {})
}

// measure runs the common flush/place/timed-load loop on a fresh world.
func measure(cfg machine.Config, seed uint64, n int, extra func(*sim.World, *machine.Machine), place func(*sim.Thread, *machine.Machine)) ([]float64, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	w := sim.NewWorld(sim.Config{Seed: seed})
	defer w.Drain() // every exit path; see Channel.Run
	m := machine.New(w, cfg)
	if extra != nil {
		extra(w, m)
	}
	out := make([]float64, 0, n)
	w.Spawn("probe", func(th *sim.Thread) {
		// Warm up the observer's TLB and the measurement loop before
		// timing anything, as the real micro-benchmark would.
		m.Load(th, 0, probeAddr)
		m.Flush(th, 0, probeAddr)
		th.Advance(4000)
		for i := 0; i < n; i++ {
			m.Flush(th, 0, probeAddr)
			place(th, m)
			// The micro-benchmark paces itself slowly: calibration is not
			// rate-constrained, so it sees the quiet (pressure-free) bands.
			th.Advance(4000)
			out = append(out, float64(m.Load(th, 0, probeAddr).Latency))
		}
	})
	if err := w.RunUntilDeadline(sim.NoDeadline, func() bool { return len(out) >= n }); err != nil {
		return nil, err
	}
	return out, nil
}

// placeBlock establishes placement pl for addr, from the observer's
// (core 0, socket 0) point of view. It issues the helper loads the
// trojan's worker threads would issue.
func placeBlock(th *sim.Thread, m *machine.Machine, pl Placement, addr uint64) {
	cores := placementCores(m.Config(), pl)
	for _, c := range cores {
		m.Load(th, c, addr)
	}
}

// placementCores returns the helper cores that realize a placement
// relative to an observer on core 0 (socket 0).
func placementCores(cfg machine.Config, pl Placement) []int {
	var first int
	if pl.Loc == Local {
		first = 1 // sibling of the observer
	} else {
		first = cfg.CoresPerSocket // first core of socket 1
	}
	if pl.St == StateShared {
		return []int{first, first + 1}
	}
	return []int{first}
}

// Calibrate measures all four placement bands plus the DRAM band on a
// quiet machine — the "self-measurements on cache hardware" both parties
// perform before communicating (§VII-B). The result is deterministic for
// a given (cfg, seed).
func Calibrate(cfg machine.Config, seed uint64, samplesPerBand int, margin float64) (Bands, error) {
	b := Bands{ByPlacement: make(map[Placement]stats.Band)}
	placements := AllPlacements
	if cfg.Sockets < 2 {
		placements = []Placement{LShared, LExcl}
	}
	for i, pl := range placements {
		xs, err := MeasurePlacement(cfg, seed+uint64(i)*101, pl, samplesPerBand, nil)
		if err != nil {
			return Bands{}, err
		}
		b.ByPlacement[pl] = stats.CalibrateBand(pl.String(), xs, margin)
	}
	xs, err := MeasureDRAM(cfg, seed+997, samplesPerBand, nil)
	if err != nil {
		return Bands{}, err
	}
	b.DRAM = stats.CalibrateBand("DRAM", xs, margin)
	return b, nil
}

// Distinct verifies that every pair of calibrated bands is disjoint —
// the feasibility condition §V establishes ("distinct bands of latency
// distributions ... sufficiently distinct from each other").
func (b Bands) Distinct() error {
	var all []stats.Band
	for _, band := range b.ByPlacement {
		all = append(all, band)
	}
	all = append(all, b.DRAM)
	for i := 0; i < len(all); i++ {
		for j := i + 1; j < len(all); j++ {
			if all[i].Overlaps(all[j]) {
				return fmt.Errorf("covert: bands %v and %v overlap", all[i], all[j])
			}
		}
	}
	return nil
}

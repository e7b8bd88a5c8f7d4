package covert

import (
	"fmt"
	"sort"
	"testing"

	"coherentleak/internal/coherence"
	"coherentleak/internal/machine"
	"coherentleak/internal/noise"
	"coherentleak/internal/sim"
)

// heldLines returns, ascending, every line that any cache of m holds or
// any directory of m has a record for.
func heldLines(m *machine.Machine) []uint64 {
	set := make(map[uint64]struct{})
	add := func(addr uint64, _ coherence.State) { set[addr] = struct{}{} }
	for s := 0; s < m.Sockets(); s++ {
		sock := m.Socket(s)
		sock.LLC.ForEachValid(add)
		for _, c := range sock.Cores {
			c.L1.ForEachValid(add)
			c.L2.ForEachValid(add)
		}
		sock.Dir.ForEach(func(line uint64, _ coherence.DirEntry) { set[line] = struct{}{} })
	}
	out := make([]uint64, 0, len(set))
	for line := range set {
		out = append(out, line)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// auditAll runs CheckInvariants on every line m holds anywhere. It
// returns how many lines it checked and the first violation.
func auditAll(m *machine.Machine) (int, error) {
	lines := heldLines(m)
	for _, line := range lines {
		if err := m.CheckInvariants(line); err != nil {
			return len(lines), err
		}
	}
	return len(lines), nil
}

// The coherence invariants (SWMR, dirty uniqueness, directory accuracy,
// inclusion, protocol legality) hold over the whole machine during and
// after a real covert transmission under 8 noise threads, the Figure 10
// load. Every line any cache holds or any directory records is audited
// at intervals mid-run and again at the end. On the paper's machine the
// noise fills tens of thousands of directory records; on the small
// machine its LLC evicts constantly, so records are dropped and private
// copies back-invalidated as fast as new ones are added.
func TestInvariantsHoldUnderNoisyTransmission(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cfg    machine.Config
		every  sim.Cycles
		evicts uint64 // LLC evictions the run must at least reach
	}{
		{"paper", machine.DefaultConfig(), 200_000, 0},
		{"small", machine.SmallConfig(), 50_000, 10_000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const threads = 8
			var mach *machine.Machine
			var midErr error
			audits := 0
			ch := NewChannel(Scenarios[1])
			ch.Config = tc.cfg
			ch.Mode = ShareExplicit
			ch.PreRun = func(s *Session) {
				if _, err := noise.Attach(s.Kern, noise.DefaultConfig(threads)); err != nil {
					t.Fatal(err)
				}
				s.OSNoiseProb = noise.CoLocationPressure(s.Kern, threads)
				mach = s.Mach
				// The step runs on the scheduler, not the test goroutine,
				// so it records the first violation and stops rather than
				// failing the test from there.
				s.World.SpawnStep("audit", func(th *sim.Thread) (sim.Cycles, bool) {
					audits++
					if _, err := auditAll(mach); err != nil {
						midErr = fmt.Errorf("mid-run at cycle %d: %w", th.Now(), err)
						return 0, true
					}
					return tc.every, false
				})
			}
			if _, err := ch.Run(PatternBitsForTest(0x5eed, 200)); err != nil {
				t.Fatal(err)
			}
			if midErr != nil {
				t.Fatal(midErr)
			}
			lines, err := auditAll(mach)
			if err != nil {
				t.Fatalf("after the run: %v", err)
			}
			records, evicts := 0, uint64(0)
			for s := 0; s < mach.Sockets(); s++ {
				records += mach.Socket(s).Dir.Lines()
				evicts += mach.Socket(s).LLC.Stats.Evictions
			}
			t.Logf("%d mid-run audits; at the end %d lines held, %d directory records, %d LLC evictions", audits, lines, records, evicts)
			if audits < 5 || records == 0 || evicts < tc.evicts {
				t.Fatalf("%d audits, %d records, %d LLC evictions: the run did not load the directory", audits, records, evicts)
			}
		})
	}
}

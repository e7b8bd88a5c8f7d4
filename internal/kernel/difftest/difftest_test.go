package difftest

import (
	"testing"

	"coherentleak/internal/cache"
	"coherentleak/internal/coherence"
	"coherentleak/internal/kernel"
	"coherentleak/internal/machine"
	"coherentleak/internal/sim"
)

// corpusPerCombo gives 500 deterministic cases across the 5 builtin
// protocols × 4 registered replacement policies in a normal `go test`
// run (25 per combination).
const corpusPerCombo = 25

// TestDifferentialCorpus executes the deterministic corpus: for every
// builtin protocol × registered replacement policy, 25 seeded random
// traces, each run as streams under the interp and compiled kernels and
// compared with the goroutine oracle.
// Protocol groups run in parallel so `go test -race` also exercises
// concurrent worlds.
func TestDifferentialCorpus(t *testing.T) {
	protos := coherence.Protocols()
	if len(protos) != 5 {
		t.Fatalf("builtin protocol count = %d, want 5 (corpus contract)", len(protos))
	}
	pols := cache.PolicyNames()
	if len(pols) != 4 {
		t.Fatalf("builtin policy count = %d, want 4 (corpus contract)", len(pols))
	}
	for pi, proto := range protos {
		pi, proto := pi, proto
		t.Run(string(proto), func(t *testing.T) {
			t.Parallel()
			for qi, pol := range pols {
				for i := 0; i < corpusPerCombo; i++ {
					c := (pi*len(pols)+qi)*corpusPerCombo + i
					seed := uint64(c)*0x9E3779B9 + 1
					tr := Generate(seed, proto)
					tr.Replacement = pol
					if mm := Compare(tr); mm != nil {
						small := Shrink(tr)
						t.Fatalf("seed %#x policy %s case %d: %v\nshrunk repro: seed=%#x threads=%d ops=%d\n%+v",
							seed, pol, i, mm, small.Seed, len(small.Threads), small.ops(), small)
					}
				}
			}
		})
	}
}

// TestCompiledPathEngages guards the corpus against vacuity: across the
// corpus the compiled kernel must actually fuse a large share of
// operations, not silently fall back to the interpreter.
func TestCompiledPathEngages(t *testing.T) {
	var compiled, total uint64
	for i := 0; i < 20; i++ {
		tr := Generate(uint64(i)*7919+3, coherence.MESIF)
		rc := Run(tr, machine.KernelCompiled)
		compiled += rc.Stream.CompiledOps
		total += rc.Stream.CompiledOps + rc.Stream.UnfusedOps + rc.Stream.InterpOps
	}
	if total == 0 {
		t.Fatal("corpus produced no operations")
	}
	if compiled*2 < total {
		t.Fatalf("compiled path fused only %d of %d ops; fast path is not engaging", compiled, total)
	}
}

// TestFallbacksExercised checks the corpus covers the counted fallback
// condition: stores through read-only shared pages must take the
// per-op COW faulting path.
func TestFallbacksExercised(t *testing.T) {
	var fallbacks uint64
	for i := 0; i < 50; i++ {
		tr := Generate(uint64(i)*104729+11, coherence.MESI)
		rc := Run(tr, machine.KernelCompiled)
		fallbacks += rc.Stream.FallbackOps
	}
	if fallbacks == 0 {
		t.Fatal("no per-op fallbacks across 50 cases; shared-page stores are not exercised")
	}
}

// TestTracedEventOrderIdentical attaches an access observer: a stream
// must report every access from the slot after its latency advance, so
// under both kernels the event stream — order, cycles, paths and
// latencies — equals the oracle's, and the compiled kernel fuses
// nothing while traced.
func TestTracedEventOrderIdentical(t *testing.T) {
	cases := 0
	for seed := uint64(1); cases < 5; seed++ {
		tr := Generate(seed*7919, coherence.MESIF)
		if len(tr.Threads) < 2 || tr.ops() < 50 {
			continue // want interleaved threads
		}
		cases++
		tr.Traced = true
		if mm := Compare(tr); mm != nil {
			t.Fatalf("seed %#x: %v", tr.Seed, mm)
		}
		ro := Run(tr, Oracle)
		if uint64(len(ro.Events)) != tr.ops() {
			t.Fatalf("seed %#x: oracle saw %d events for %d ops", tr.Seed, len(ro.Events), tr.ops())
		}
		if rc := Run(tr, machine.KernelCompiled); rc.Stream.CompiledOps != 0 {
			t.Fatalf("seed %#x: traced compiled run fused %d ops", tr.Seed, rc.Stream.CompiledOps)
		}
	}
}

// TestStopMatchesOracle stops an endless stream from another thread.
// Under the interp kernel the stream must end at the same slot as the
// oracle loop: same operation count (an op counts once its access
// completes, before its think) and same machine state. Under the
// compiled kernel the machine state must match too; a fused op is
// counted when issued, so a stop landing inside its latency leaves the
// count at most one ahead.
func TestStopMatchesOracle(t *testing.T) {
	run := func(executor string, stopAt sim.Cycles) (uint64, string) {
		w := sim.NewWorld(sim.Config{Seed: 3})
		cfg := machine.DefaultConfig()
		if executor != Oracle {
			cfg.Kernel = executor
		}
		m := machine.New(w, cfg)
		k := kernel.New(m, 0)
		p := k.NewProcess("p")
		va := p.MustMmap(4)
		var ops uint64
		var victim *kernel.Thread
		if executor == Oracle {
			victim = k.Spawn(p, 3, "v", func(kt *kernel.Thread) {
				for i := uint64(0); ; i++ {
					kt.Store(va + i%256*64)
					ops++
					kt.Advance(7)
				}
			})
		} else {
			i := uint64(0)
			victim = k.SpawnStream(p, 3, "v", func(prog *kernel.Program) bool {
				for n := 0; n < 5; n++ {
					prog.Store(va+i%256*64, 7)
					i++
				}
				return true
			}, &ops)
		}
		k.Spawn(p, 0, "killer", func(kt *kernel.Thread) {
			kt.Advance(stopAt)
			w.StopThread(victim.Sim)
		})
		if err := w.RunUntilDeadline(stopAt+1000, nil); err != nil {
			t.Fatal(err)
		}
		w.Drain()
		return ops, m.StateDigest()
	}
	for _, stopAt := range []sim.Cycles{1, 500, 4321, 20000} {
		wantOps, wantDigest := run(Oracle, stopAt)
		for _, kern := range []string{machine.KernelInterp, machine.KernelCompiled} {
			ops, digest := run(kern, stopAt)
			early := uint64(0)
			if kern == machine.KernelCompiled && ops == wantOps+1 {
				early = 1
			}
			if ops != wantOps+early || digest != wantDigest {
				t.Fatalf("stop at %d, %s: %d ops (digest %s), oracle %d ops (digest %s)",
					stopAt, kern, ops, digest, wantOps, wantDigest)
			}
		}
	}
}

// TestShrinkPreservesPassing confirms Shrink is the identity on a
// passing trace (it must never "shrink" a healthy case into noise).
func TestShrinkPreservesPassing(t *testing.T) {
	tr := Generate(7, coherence.MOESI)
	got := Shrink(tr)
	if got.Seed != tr.Seed || len(got.Threads) != len(tr.Threads) {
		t.Fatal("Shrink modified a passing trace")
	}
}

// FuzzDifferential is the randomized entry point: `go test -fuzz
// FuzzDifferential ./internal/kernel/difftest` explores seeds, protocol
// and replacement-policy choices beyond the deterministic corpus.
func FuzzDifferential(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(0))
	f.Add(uint64(12345), uint8(1), uint8(0))
	f.Add(uint64(0xdeadbeef), uint8(2), uint8(1))
	f.Add(uint64(0x9E3779B97F4A7C15), uint8(3), uint8(0))
	f.Add(uint64(271828), uint8(4), uint8(1))
	// RRIP insertion-age seeds: dense conflict traces under SRRIP age
	// whole sets to "distant" before victimizing, and under BRRIP cross
	// the 32-fill bimodal boundary repeatedly, so the aging loop, the
	// insertion trickle and the compiled kernel's memo are all exercised
	// against the interpreter.
	f.Add(uint64(0xA11C0DE), uint8(0), uint8(2))
	f.Add(uint64(0x5EED5EED5EED), uint8(1), uint8(2))
	f.Add(uint64(0xB1B0DA1), uint8(0), uint8(3))
	f.Add(uint64(0xFEEDFACECAFE), uint8(4), uint8(3))
	f.Fuzz(func(t *testing.T, seed uint64, proto uint8, pol uint8) {
		protos := coherence.Protocols()
		pols := cache.PolicyNames()
		tr := Generate(seed, protos[int(proto)%len(protos)])
		tr.Replacement = pols[int(pol)%len(pols)]
		if mm := Compare(tr); mm != nil {
			small := Shrink(tr)
			t.Fatalf("seed %#x proto %s policy %s: %v\nshrunk repro: %+v",
				seed, tr.Protocol, tr.Replacement, mm, small)
		}
	})
}

package noise

import (
	"runtime"
	"testing"

	"coherentleak/internal/kernel"
	"coherentleak/internal/machine"
	"coherentleak/internal/sim"
)

func newKern(t *testing.T) *kernel.Kernel {
	t.Helper()
	w := sim.NewWorld(sim.Config{Seed: 5})
	return kernel.New(machine.New(w, machine.DefaultConfig()), 0)
}

func TestAttachZeroThreads(t *testing.T) {
	k := newKern(t)
	w, err := Attach(k, DefaultConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	if w.Threads() != 0 {
		t.Fatal("threads spawned for zero config")
	}
}

func TestAttachRejectsBadConfig(t *testing.T) {
	k := newKern(t)
	if _, err := Attach(k, Config{Threads: -1}); err == nil {
		t.Fatal("negative threads accepted")
	}
	if _, err := Attach(k, Config{Threads: 1, WorkingSetPages: 0, OpsPerPhase: 1}); err == nil {
		t.Fatal("zero working set accepted")
	}
}

func TestWorkloadGeneratesTraffic(t *testing.T) {
	k := newKern(t)
	cfg := DefaultConfig(4)
	cfg.WorkingSetPages = 64 // keep setup cheap
	w, err := Attach(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if w.Threads() != 4 {
		t.Fatalf("threads = %d", w.Threads())
	}
	world := k.World()
	if err := world.RunUntil(func() bool { return world.Now() > 200_000 }); err != nil {
		t.Fatal(err)
	}
	if w.Ops < 1000 {
		t.Fatalf("only %d ops after 200k cycles", w.Ops)
	}
	loads := k.Machine().Stats.Loads
	stores := k.Machine().Stats.Stores
	if loads == 0 || stores == 0 {
		t.Fatalf("workload is not mixed: loads=%d stores=%d", loads, stores)
	}
	w.Stop()
	world.Drain()
}

func TestSpreadCoresAvoidsAttackCoresFirst(t *testing.T) {
	k := newKern(t)
	cores := spreadCores(k, 7) // 7 spare cores exist (3,4,5,8,9,10,11)
	attack := map[int]bool{0: true, 1: true, 2: true, 6: true, 7: true}
	for i, c := range cores {
		if attack[c] {
			t.Errorf("noise thread %d placed on attack core %d with spares free", i, c)
		}
	}
	// The 8th thread must double up somewhere.
	cores = spreadCores(k, 8)
	if len(cores) != 8 {
		t.Fatal("wrong core count")
	}
}

func TestCoLocationPressure(t *testing.T) {
	k := newKern(t)
	// 12 cores, 5 reserved -> 7 spare.
	if p := CoLocationPressure(k, 6); p != 0 {
		t.Fatalf("pressure with spare cores = %v", p)
	}
	if p := CoLocationPressure(k, 8); p <= 0 {
		t.Fatalf("no pressure with oversubscription: %v", p)
	}
	if CoLocationPressure(k, 9) <= CoLocationPressure(k, 8) {
		t.Fatal("pressure not increasing")
	}
}

func TestWorkloadDeterministic(t *testing.T) {
	run := func() uint64 {
		w := sim.NewWorld(sim.Config{Seed: 11})
		k := kernel.New(machine.New(w, machine.DefaultConfig()), 0)
		cfg := DefaultConfig(2)
		cfg.WorkingSetPages = 32
		wl, err := Attach(k, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.RunUntil(func() bool { return w.Now() > 100_000 }); err != nil {
			t.Fatal(err)
		}
		ops := wl.Ops
		wl.Stop()
		w.Drain()
		return ops
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("runs diverged: %d vs %d ops", a, b)
	}
}

// Noise threads are access streams: they own no goroutine, while
// attached or while running.
func TestAttachAddsNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	k := newKern(t)
	cfg := DefaultConfig(8)
	cfg.WorkingSetPages = 32
	w, err := Attach(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := runtime.NumGoroutine(); n != base {
		t.Fatalf("Attach(8) added %d goroutines", n-base)
	}
	world := k.World()
	if err := world.RunUntilDeadline(50_000, nil); err != nil {
		t.Fatal(err)
	}
	if w.Ops == 0 {
		t.Fatal("noise threads did not run")
	}
	if n := runtime.NumGoroutine(); n != base {
		t.Fatalf("running 8 noise threads added %d goroutines", n-base)
	}
	w.Stop()
	world.Drain()
	if world.LiveThreads() != 0 {
		t.Fatal("Drain left noise threads live")
	}
}

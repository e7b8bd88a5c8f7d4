package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// deltas returns thread i's scripted advance sequence: a mix of ties,
// zero advances and long gaps, so mixed schedules interleave densely.
func deltas(i int) []Cycles {
	r := NewRand(uint64(i) + 100)
	out := make([]Cycles, 40)
	for k := range out {
		switch r.Intn(4) {
		case 0:
			out[k] = 0
		case 1:
			out[k] = Cycles(r.Intn(3))
		default:
			out[k] = Cycles(r.Intn(50))
		}
	}
	return out
}

// scripted spawns thread i running deltas(i), as a goroutine thread or a
// stepped thread; both log "name@time" at every scheduling slot.
func scripted(w *World, i int, stepped bool, log *[]string) *Thread {
	ds := deltas(i)
	name := fmt.Sprintf("t%d", i)
	rec := func(th *Thread) { *log = append(*log, fmt.Sprintf("%s@%d", th.Name(), th.Now())) }
	if stepped {
		k := 0
		return w.SpawnStep(name, func(th *Thread) (Cycles, bool) {
			rec(th)
			if k == len(ds) {
				return 0, true
			}
			k++
			return ds[k-1], false
		})
	}
	return w.Spawn(name, func(th *Thread) {
		for _, d := range ds {
			rec(th)
			th.Advance(d)
		}
		rec(th)
	})
}

// mixedLog runs one thread per entry of stepped under drive and returns
// the slot log and the clock at which the drive returned.
func mixedLog(stepped []bool, drive func(*World) error) ([]string, Cycles) {
	w := NewWorld(Config{Seed: 1})
	var log []string
	for i, s := range stepped {
		scripted(w, i, s, &log)
	}
	if err := drive(w); err != nil {
		panic(err)
	}
	now := w.Now()
	w.Drain()
	return log, now
}

// A stepped thread is schedule-equivalent to the goroutine thread with
// the same advances, in any mix with goroutine threads and under every
// drive form.
func TestSteppedMatchesGoroutineSchedule(t *testing.T) {
	drives := map[string]func(*World) error{
		"run":      func(w *World) error { return w.Run() },
		"deadline": func(w *World) error { return w.RunUntilDeadline(300, nil) },
		"opaque":   func(w *World) error { return w.RunUntil(func() bool { return w.Now() >= 250 }) },
	}
	mixes := [][]bool{
		{true},
		{true, true, true},
		{false, true, false, true},
		{true, false, false, true, true},
	}
	for dname, drive := range drives {
		for _, mix := range mixes {
			want, wantNow := mixedLog(make([]bool, len(mix)), drive)
			got, gotNow := mixedLog(mix, drive)
			if strings.Join(got, " ") != strings.Join(want, " ") || gotNow != wantNow {
				t.Fatalf("%s drive, stepped=%v:\n got %v (now %d)\nwant %v (now %d)", dname, mix, got, gotNow, want, wantNow)
			}
		}
	}
}

func TestSteppedThreadOwnsNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	w := NewWorld(Config{Seed: 1})
	var log []string
	for i := 0; i < 8; i++ {
		scripted(w, i, true, &log)
	}
	if n := runtime.NumGoroutine(); n != base {
		t.Fatalf("8 stepped threads added %d goroutines", n-base)
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if w.LiveThreads() != 0 {
		t.Fatal("stepped threads did not finish")
	}
}

func TestStopSteppedThread(t *testing.T) {
	w := NewWorld(Config{Seed: 1})
	iters := 0
	victim := w.SpawnStep("victim", func(*Thread) (Cycles, bool) {
		iters++
		return 1, false
	})
	w.Spawn("killer", func(th *Thread) {
		th.Advance(50)
		th.World().StopThread(victim)
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if !victim.Finished() {
		t.Fatal("victim not finished after stop")
	}
	if iters != 51 {
		t.Fatalf("victim stepped %d times, want 51 (times 0..50)", iters)
	}
}

func TestDrainSteppedThread(t *testing.T) {
	w := NewWorld(Config{Seed: 1})
	steps := 0
	w.SpawnStep("forever", func(*Thread) (Cycles, bool) {
		steps++
		return 1, false
	})
	if err := w.RunUntil(func() bool { return w.Now() >= 100 }); err != nil {
		t.Fatal(err)
	}
	before := steps
	w.Drain()
	if w.LiveThreads() != 0 {
		t.Fatal("Drain left live threads")
	}
	if steps != before {
		t.Fatalf("Drain stepped the thread %d more times", steps-before)
	}
}

func TestSteppedPanicPropagates(t *testing.T) {
	for _, mixed := range []bool{false, true} {
		w := NewWorld(Config{Seed: 1})
		if mixed {
			// The goroutine thread hands control over at t=10; the failing
			// step then runs inline on its goroutine.
			w.Spawn("g", func(th *Thread) {
				th.Advance(10)
				th.Advance(10)
			})
		}
		w.SpawnStep("bad", func(th *Thread) (Cycles, bool) {
			if th.Now() >= 15 {
				panic("boom")
			}
			return 5, false
		})
		func() {
			defer func() {
				r := recover()
				if r == nil || !strings.Contains(fmt.Sprint(r), "boom") {
					t.Fatalf("mixed=%v: step panic did not propagate: %v", mixed, r)
				}
			}()
			_ = w.RunUntil(func() bool { return false })
		}()
		w.Drain()
		if w.LiveThreads() != 0 {
			t.Fatalf("mixed=%v: Drain after a failed step left live threads", mixed)
		}
	}
}

// A step ends its slot by returning the advance; calling Advance inside
// it is a programming error that fails the run.
func TestAdvanceInsideStepFails(t *testing.T) {
	w := NewWorld(Config{Seed: 1})
	w.SpawnStep("bad", func(th *Thread) (Cycles, bool) {
		th.Advance(1)
		return 1, false
	})
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "stepping") {
			t.Fatalf("Advance inside a step did not fail the run: %v", r)
		}
	}()
	_ = w.Run()
}

func TestSteppedDeadlockLimit(t *testing.T) {
	w := NewWorld(Config{Seed: 1, MaxCycles: 1000})
	w.SpawnStep("spinner", func(*Thread) (Cycles, bool) { return 100, false })
	err := w.Run()
	if e, ok := err.(ErrDeadlock); !ok || e.At != 1000 {
		t.Fatalf("err = %v, want ErrDeadlock at 1000", err)
	}
	w.Drain()
	if w.LiveThreads() != 0 {
		t.Fatal("Drain left the over-limit thread live")
	}
}

// An opaque predicate may depend on anything a step does, so it must be
// evaluated between every two steps, fast path included.
func TestOpaquePredicateEvaluatedEveryStep(t *testing.T) {
	w := NewWorld(Config{Seed: 1, MaxCycles: 1000}) // bounds a missed stop
	steps := 0
	w.SpawnStep("counter", func(*Thread) (Cycles, bool) {
		steps++
		return 1, false
	})
	if err := w.RunUntil(func() bool { return steps == 7 }); err != nil {
		t.Fatal(err)
	}
	if steps != 7 {
		t.Fatalf("run stopped after %d steps, want 7", steps)
	}
	w.Drain()
}

func BenchmarkHandoffGoroutine(b *testing.B) {
	benchHandoff(b, false)
}

func BenchmarkHandoffStepped(b *testing.B) {
	benchHandoff(b, true)
}

// benchHandoff runs two threads in lockstep, so that every advance hands
// control to the other thread: b.N hand-offs in all.
func benchHandoff(b *testing.B, stepped bool) {
	w := NewWorld(Config{Seed: 1})
	per := b.N / 2
	for i := 0; i < 2; i++ {
		if stepped {
			n := 0
			w.SpawnStep("s", func(*Thread) (Cycles, bool) {
				n++
				return 1, n > per
			})
		} else {
			w.Spawn("g", func(th *Thread) {
				for k := 0; k < per; k++ {
					th.Advance(1)
				}
			})
		}
	}
	b.ResetTimer()
	if err := w.Run(); err != nil {
		b.Fatal(err)
	}
}

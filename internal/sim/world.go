// Package sim provides the discrete-event kernel underneath the coherence
// testbed: a virtual cycle clock, a deterministic cooperative scheduler for
// simulated hardware threads, and seeded pseudo-random number generation.
//
// Determinism is the point. The paper's attack lives or dies on a 26-cycle
// latency difference; the Go runtime's scheduler and garbage collector
// introduce orders of magnitude more wall-clock noise than that. The kernel
// therefore runs exactly one simulated thread at a time and orders threads
// by (virtual time, thread id), so a run is a pure function of its
// configuration and seed. Shared state mutated by thread bodies needs no
// locking.
//
// A simulated thread comes in one of two forms. A goroutine thread
// (Spawn) runs an arbitrary body on its own goroutine and hands control
// back to the kernel at every Advance; the attack's spy and trojan are
// written this way. A stepped thread (SpawnStep) owns no goroutine: it is
// a step function that does one scheduling slot's work and returns how
// far to advance, and the kernel calls it inline on whichever goroutine
// holds control. Straight-line access streams such as the noise workload
// are stepped threads, so a hand-off between two of them is a function
// call rather than a goroutine switch.
//
// Three mechanisms keep the hand-over off the hot path. A thread whose
// Advance (or step) leaves it the earliest runnable thread simply keeps
// executing — the scheduler would have re-selected it anyway. When
// another thread is due, control transfers directly from the yielding
// thread's goroutine: stepped threads run inline until the next due
// thread is a goroutine thread, which is then resumed. The scheduler
// goroutine parked in RunUntil wakes only for conditions it must observe
// (stop predicate, thread failure, cycle limit, all threads finished).
// Every path selects threads by exactly the same (time, id) ordering, and
// applies the same checks in the same order, as a naive central
// scheduler loop, so schedules — and therefore every derived artifact —
// do not depend on which form a thread takes.
package sim

import (
	"fmt"
	"runtime"
	"sort"
)

// Cycles is a duration or instant measured in simulated CPU cycles.
type Cycles = uint64

// killed is the panic sentinel used to unwind a thread that was stopped
// from outside (World.StopThread or World.Shutdown).
type killed struct{ reason string }

// ErrDeadlock is reported by World.Run when no thread can make progress
// before MaxCycles elapses.
type ErrDeadlock struct {
	At Cycles
}

func (e ErrDeadlock) Error() string {
	return fmt.Sprintf("sim: no runnable thread advanced past cycle limit %d", e.At)
}

// Config parameterizes a World.
type Config struct {
	// Seed feeds the world's root random stream. Child components should
	// obtain their own streams via World.Rand().Split().
	Seed uint64
	// MaxCycles aborts the run when the global clock passes it.
	// Zero means no limit.
	MaxCycles Cycles
}

// World is the simulation kernel: it owns the virtual clock and schedules
// simulated threads deterministically. Create one with NewWorld, add
// threads with Spawn or SpawnStep, then drive them with Run or RunUntil.
type World struct {
	cfg      Config
	rand     *Rand
	threads  []*Thread
	queue    threadQueue
	nextID   int
	now      Cycles
	running  bool
	draining bool
	yield    chan struct{} // wakes the scheduler goroutine parked in RunUntil/Drain

	// stopFn is RunUntil's predicate, stored so the inline fast path and
	// direct handoffs can honour it at every step, exactly as a central
	// scheduler loop would.
	stopFn func() bool
	// failed records a thread whose body panicked; the scheduler
	// re-panics its error on the RunUntil goroutine.
	failed *Thread

	// fuseSafe and fuseDeadline describe the active drive's stop
	// structure for FuseHorizon: set by RunUntilDeadline (and Run, with
	// NoDeadline), cleared for opaque RunUntil predicates.
	fuseSafe     bool
	fuseDeadline Cycles

	// steps counts steps of stepped threads, for stepsPerGosched.
	steps uint64
}

// stepsPerGosched paces the yields of a run of stepped threads to the Go
// scheduler. Such a run never blocks, unlike goroutine threads, which
// park on every hand-off; without a yield, a garbage-collection cycle
// that starts during it waits for preemption to get its mark worker onto
// the processor, everything allocated meanwhile is marked live, and the
// next heap goal — and with it peak memory — grows. Yielding does not
// affect the simulation: no other thread of this world can run.
const stepsPerGosched = 1024

// NewWorld returns an empty world.
func NewWorld(cfg Config) *World {
	return &World{
		cfg:   cfg,
		rand:  NewRand(cfg.Seed),
		yield: make(chan struct{}, 1),
	}
}

// Rand returns the world's root random stream.
func (w *World) Rand() *Rand { return w.rand }

// Now returns the global virtual clock: the local time of the most
// recently scheduled thread.
func (w *World) Now() Cycles { return w.now }

// Threads returns all threads ever spawned, in spawn order, including
// finished ones.
func (w *World) Threads() []*Thread {
	out := make([]*Thread, len(w.threads))
	copy(out, w.threads)
	return out
}

// Spawn creates a simulated thread named name whose body is fn. The thread
// starts at the current global time and runs when the scheduler first
// selects it. Spawn may be called before Run or from inside another
// thread's body.
func (w *World) Spawn(name string, fn func(*Thread)) *Thread {
	t := &Thread{
		id:     w.nextID,
		name:   name,
		world:  w,
		time:   w.now,
		resume: make(chan struct{}, 1),
		state:  threadReady,
	}
	w.nextID++
	w.threads = append(w.threads, t)
	w.queue.push(t)
	go t.run(fn)
	return t
}

// SpawnStep creates a stepped thread named name. It owns no goroutine:
// each time the scheduler selects it, step runs inline with the thread's
// clock at the slot's time, does that slot's work, and returns either
// the cycles to advance (the equivalent of ending the slot with
// Advance(d)) or done to finish the thread without advancing. A step
// must not call Advance; a panic in step fails the run exactly like a
// panic in a goroutine thread's body. A stepped thread with a pending
// stop finishes when next selected, without stepping.
func (w *World) SpawnStep(name string, step func(*Thread) (d Cycles, done bool)) *Thread {
	t := &Thread{
		id:    w.nextID,
		name:  name,
		world: w,
		time:  w.now,
		state: threadReady,
		step:  step,
	}
	w.nextID++
	w.threads = append(w.threads, t)
	w.queue.push(t)
	return t
}

// NoDeadline marks a RunUntilDeadline drive with no time bound: the
// clock can never exceed it.
const NoDeadline = ^Cycles(0)

// Run drives the world until every thread has finished. It returns
// ErrDeadlock if the cycle limit is exceeded first, or the first panic
// value (re-panicked) if a thread body panics.
func (w *World) Run() error {
	return w.RunUntilDeadline(NoDeadline, nil)
}

// RunUntil drives the world until stop() returns true (checked between
// thread steps), every thread finishes, or the cycle limit is exceeded.
//
// The predicate is opaque: it may read the virtual clock, so batching
// executors (the kernel's access streams) must fall back to per-operation
// scheduling while such a drive is active. Drives whose only time
// dependence is a deadline should use RunUntilDeadline instead, which
// exposes the structure and keeps the fused fast path engaged.
func (w *World) RunUntil(stop func() bool) error {
	return w.runLoop(stop)
}

// RunUntilDeadline drives the world until stop() returns true, the
// global clock exceeds deadline (use NoDeadline for none), every thread
// finishes, or the cycle limit is exceeded. It is semantically identical
// to RunUntil with the predicate `stop() || w.Now() > deadline`, but
// declares that stop itself never reads the virtual clock — its value
// can only change through a thread's own actions. That structure is
// what lets the compiled access-stream kernel fuse an operation's
// latency and think time into one Advance: the skipped intermediate
// predicate evaluation provably has the same value (see FuseHorizon).
func (w *World) RunUntilDeadline(deadline Cycles, stop func() bool) error {
	w.fuseSafe, w.fuseDeadline = true, deadline
	defer func() { w.fuseSafe = false }()
	if stop == nil && deadline == NoDeadline {
		return w.runLoop(nil)
	}
	return w.runLoop(func() bool {
		return (stop != nil && stop()) || w.now > deadline
	})
}

// FuseHorizon returns the active drive's deadline when the stop
// condition is clock-free up to that deadline (a Run or RunUntilDeadline
// drive): an Advance that keeps the thread below every other thread's
// wake time may then skip intermediate predicate evaluations at times
// at or below the horizon. ok is false under an opaque RunUntil
// predicate — callers must not fuse.
func (w *World) FuseHorizon() (deadline Cycles, ok bool) {
	if !w.running || !w.fuseSafe {
		return 0, false
	}
	return w.fuseDeadline, true
}

// CycleLimit returns the configured MaxCycles (0 = none).
func (w *World) CycleLimit() Cycles { return w.cfg.MaxCycles }

func (w *World) runLoop(stop func() bool) error {
	if w.running {
		panic("sim: World.Run called re-entrantly")
	}
	w.running = true
	w.stopFn = stop
	defer func() {
		w.running = false
		w.stopFn = nil
	}()

	for {
		if stop != nil && stop() {
			return nil
		}
		t := w.nextRunnable()
		if t == nil {
			return nil // all threads finished
		}
		if w.cfg.MaxCycles != 0 && t.time > w.cfg.MaxCycles {
			// Requeue the over-limit thread so a subsequent Drain can
			// unwind it instead of leaking its goroutine.
			w.queue.push(t)
			return ErrDeadlock{At: w.cfg.MaxCycles}
		}
		w.now = t.time
		if t.step != nil {
			if failed := w.runStepped(t); failed != nil {
				panic(failed.err)
			}
			continue
		}
		t.state = threadRunning
		t.resume <- struct{}{}
		// Threads hand off among themselves; the wake below means a
		// condition needs this goroutine: stop predicate, empty queue,
		// cycle limit, or a failed thread.
		<-w.yield
		if w.failed != nil {
			err := w.failed.err
			w.failed = nil
			panic(err)
		}
	}
}

// transfer hands control to the next runnable thread directly, or wakes
// the scheduler goroutine when it must observe a condition (thread
// failure, stop predicate, empty queue, cycle limit). Stepped threads
// due next run inline here, until the next due thread is a goroutine
// thread (which is resumed) or a condition needs the scheduler. It is
// called on the goroutine of a thread that has just parked or finished;
// exactly one simulated thread executes at any time, so mutating
// scheduler state here is race-free.
func (w *World) transfer(failed *Thread) {
	for {
		if failed != nil && !w.draining {
			w.failed = failed
			w.yield <- struct{}{}
			return
		}
		if w.stopFn != nil && w.stopFn() {
			w.yield <- struct{}{}
			return
		}
		next := w.nextRunnable()
		if next == nil {
			w.yield <- struct{}{}
			return
		}
		if !w.draining && w.cfg.MaxCycles != 0 && next.time > w.cfg.MaxCycles {
			// Put the over-limit thread back; the scheduler re-pops it
			// and reports ErrDeadlock, exactly as the central loop did.
			w.queue.push(next)
			w.yield <- struct{}{}
			return
		}
		w.now = next.time
		if next.step != nil {
			failed = w.runStepped(next)
			continue
		}
		next.state = threadRunning
		next.resume <- struct{}{}
		return
	}
}

// runStepped runs the selected stepped thread t inline, step after step,
// for as long as the inline fast path would keep a goroutine thread
// running; then it requeues t, or marks it done. Between steps it applies
// Advance's checks in Advance's order. It returns t if a step panicked,
// with the panic recorded as t.err, so the caller fails the run exactly
// as for a goroutine thread whose body panicked.
func (w *World) runStepped(t *Thread) (failed *Thread) {
	if t.stopRequested {
		t.state = threadDone
		return nil
	}
	t.state = threadStepping
	defer func() {
		if r := recover(); r != nil {
			t.err = fmt.Errorf("sim: thread %q panicked: %v", t.name, r)
			t.state = threadDone
			failed = t
		}
	}()
	for {
		if w.steps++; w.steps%stepsPerGosched == 0 {
			runtime.Gosched()
		}
		d, done := t.step(t)
		if done || t.stopRequested {
			t.state = threadDone
			return nil
		}
		t.time += d
		if !w.keepsRunning(t) {
			t.state = threadReady
			w.queue.push(t)
			return nil
		}
	}
}

// keepsRunning is the inline fast path shared by Advance and stepped
// threads: it reports whether t, whose clock has just advanced, would be
// re-selected at once by the central scheduler loop, and if so makes its
// time the global time. The checks mirror one iteration of that loop, in
// its order: stop predicate, then (time, id) thread selection, then the
// cycle limit on the selected thread.
func (w *World) keepsRunning(t *Thread) bool {
	if w.running && (w.stopFn == nil || !w.stopFn()) &&
		(w.cfg.MaxCycles == 0 || t.time <= w.cfg.MaxCycles) &&
		(len(w.queue) == 0 || t.before(w.queue[0])) {
		w.now = t.time
		return true
	}
	return false
}

// nextRunnable pops the ready thread with the smallest (time, id), or
// returns nil when none is ready.
func (w *World) nextRunnable() *Thread {
	if len(w.queue) == 0 {
		return nil
	}
	return w.queue.pop()
}

// StopThread asks a thread to terminate. The thread unwinds the next time
// it calls Advance (or immediately if it is waiting to be scheduled).
func (w *World) StopThread(t *Thread) {
	if t.state == threadDone {
		return
	}
	t.stopRequested = true
}

// Shutdown requests termination of every live thread.
func (w *World) Shutdown() {
	for _, t := range w.threads {
		w.StopThread(t)
	}
}

// Drain stops every thread and schedules until all have unwound. Call it
// after RunUntil returns with live threads, so their goroutines exit
// before the world is dropped. Stepped threads are simply marked done.
func (w *World) Drain() {
	w.Shutdown()
	w.draining = true
	defer func() { w.draining = false }()
	for {
		t := w.nextRunnable()
		if t == nil {
			return
		}
		if t.step != nil {
			t.state = threadDone
			continue
		}
		t.state = threadRunning
		t.resume <- struct{}{}
		<-w.yield
	}
}

// LiveThreads returns the number of threads that have not finished.
func (w *World) LiveThreads() int {
	n := 0
	for _, t := range w.threads {
		if t.state != threadDone {
			n++
		}
	}
	return n
}

// Snapshot returns a human-readable summary of thread states, for
// debugging stuck scenarios.
func (w *World) Snapshot() string {
	ts := w.Threads()
	sort.Slice(ts, func(i, j int) bool { return ts[i].id < ts[j].id })
	s := fmt.Sprintf("world @%d cycles, %d threads\n", w.now, len(ts))
	for _, t := range ts {
		s += fmt.Sprintf("  #%d %-20s %-8s @%d\n", t.id, t.name, t.state, t.time)
	}
	return s
}

// threadQueue is a binary min-heap ordered by (time, id). Ordering by id
// second makes scheduling fully deterministic when threads share a
// timestamp; since (time, id) is a strict total order, the pop sequence
// is the same for any correct heap. It holds exactly the ready threads:
// a thread is pushed when it becomes ready and changes state only after
// it has been popped.
type threadQueue []*Thread

// before reports whether t sorts ahead of u in (time, id) order.
func (t *Thread) before(u *Thread) bool {
	return t.time < u.time || (t.time == u.time && t.id < u.id)
}

func (q *threadQueue) push(t *Thread) {
	h := append(*q, t)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !t.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = t
	*q = h
}

func (q *threadQueue) pop() *Thread {
	h := *q
	n := len(h) - 1
	top, last := h[0], h[n]
	h[n] = nil
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && h[r].before(h[c]) {
				c = r
			}
			if !h[c].before(last) {
				break
			}
			h[i] = h[c]
			i = c
		}
		h[i] = last
	}
	*q = h
	return top
}

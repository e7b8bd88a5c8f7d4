package sim

import "fmt"

type threadState int

const (
	threadReady threadState = iota
	threadRunning
	threadStepping // a stepped thread's step is executing
	threadDone
)

func (s threadState) String() string {
	switch s {
	case threadReady:
		return "ready"
	case threadRunning:
		return "running"
	case threadStepping:
		return "stepping"
	case threadDone:
		return "done"
	default:
		return "unknown"
	}
}

// Thread is a simulated hardware thread. Threads are cooperatively
// scheduled: exactly one executes at a time. A goroutine thread's body
// returns control to the World at every Advance call, so it must call
// Advance (directly or through a timed machine operation) inside any
// loop, or the simulation cannot progress. A stepped thread returns
// control at the end of every step.
type Thread struct {
	id     int
	name   string
	world  *World
	time   Cycles
	resume chan struct{} // nil for stepped threads
	state  threadState
	err    error

	// step is a stepped thread's step function (nil for goroutine
	// threads); see World.SpawnStep.
	step func(*Thread) (Cycles, bool)

	stopRequested bool
}

// ID returns the thread's unique id (spawn order).
func (t *Thread) ID() int { return t.id }

// Name returns the thread's debug name.
func (t *Thread) Name() string { return t.name }

// Now returns the thread's local virtual time in cycles. It is the
// simulated analogue of rdtsc.
func (t *Thread) Now() Cycles { return t.time }

// World returns the owning world.
func (t *Thread) World() *World { return t.world }

// Finished reports whether the thread body has returned or been stopped.
func (t *Thread) Finished() bool { return t.state == threadDone }

// StopRequested reports whether World.StopThread has been called for t.
// Long-running bodies may poll it to exit cleanly; otherwise the next
// Advance unwinds them.
func (t *Thread) StopRequested() bool { return t.stopRequested }

// Advance moves the thread's local clock forward by d cycles and yields to
// the scheduler. All simulated work is expressed as Advance calls: a load
// that hits in the L1 is Advance(4) from the core's point of view.
//
// When the advanced thread is still the earliest runnable one — the
// common case for single-threaded phases and for whichever attack thread
// currently trails in virtual time — Advance returns without any
// goroutine switch: the scheduler would have re-selected this thread
// immediately, so running on is observationally identical and removes
// the channel park/resume pair from the per-operation cost.
//
// Advance may only be called from a goroutine thread's body, never from a
// step. It panics with an internal sentinel if the thread has been stopped;
// the sentinel is recovered by the thread wrapper, so thread bodies should
// not recover it themselves (a recover must re-panic values it does not
// recognize — see run).
func (t *Thread) Advance(d Cycles) {
	if t.state != threadRunning {
		panic(fmt.Sprintf("sim: Advance called on %s thread %q", t.state, t.name))
	}
	if t.stopRequested {
		panic(killed{reason: "stop requested"})
	}
	t.time += d
	w := t.world
	if w.keepsRunning(t) {
		return
	}
	// Slow path: another thread is due (or the scheduler must observe a
	// condition). Park and hand control over.
	t.state = threadReady
	w.queue.push(t)
	w.transfer(nil)
	<-t.resume
	if t.stopRequested {
		panic(killed{reason: "stop requested"})
	}
}

// Yield gives other threads at the same timestamp a chance to run without
// consuming simulated time. Because ties are broken by thread id, a Yield
// by the lowest-id thread re-runs it immediately; use Advance(1) when real
// progress is required.
func (t *Thread) Yield() { t.Advance(0) }

// run is the goroutine wrapper around the thread body. It waits for the
// first scheduling, executes fn, recovers the kill sentinel, and passes
// control on — directly to the next runnable thread, or to the scheduler
// when the body panicked (so RunUntil can re-panic the error).
func (t *Thread) run(fn func(*Thread)) {
	<-t.resume
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(killed); !ok {
				t.err = fmt.Errorf("sim: thread %q panicked: %v", t.name, r)
			}
		}
		t.state = threadDone
		if t.err != nil {
			t.world.transfer(t)
		} else {
			t.world.transfer(nil)
		}
	}()
	fn(t)
}

package kernel

import (
	"fmt"

	"coherentleak/internal/machine"
	"coherentleak/internal/sim"
)

// Thread is a simulated OS thread: a sim thread pinned to a core
// (sched_setaffinity semantics) executing within a process's address
// space. Its Load/Store/Flush translate virtual addresses and drive the
// machine, advancing virtual time by the operation's latency.
type Thread struct {
	Sim    *sim.Thread
	Proc   *Process
	CoreID int
	kern   *Kernel
	// Faults counts COW faults taken by this thread.
	Faults int
}

// Spawn creates a thread of proc pinned to global core id, running body.
// Pinning is fixed for the thread's lifetime, as the paper's experiments
// pin trojan and spy threads with sched_setaffinity.
func (k *Kernel) Spawn(proc *Process, core int, name string, body func(*Thread)) *Thread {
	t := k.newThread(proc, core, name)
	t.Sim = k.world.Spawn(t.simName(name), func(*sim.Thread) { body(t) })
	return t
}

// newThread validates the pinning and returns the kernel half of a
// thread; the caller attaches the sim thread.
func (k *Kernel) newThread(proc *Process, core int, name string) *Thread {
	if core < 0 || core >= k.mach.Cores() {
		panic(fmt.Sprintf("kernel: cannot pin %q to core %d of %d", name, core, k.mach.Cores()))
	}
	return &Thread{Proc: proc, CoreID: core, kern: k}
}

// simName is the sim thread's debug name for a thread named name.
func (t *Thread) simName(name string) string {
	return fmt.Sprintf("%s/%s@c%d", t.Proc.Name, name, t.CoreID)
}

// Now returns the thread's virtual time — the rdtsc analogue.
func (t *Thread) Now() sim.Cycles { return t.Sim.Now() }

// Advance burns d cycles of non-memory work (loop overhead, waiting).
func (t *Thread) Advance(d sim.Cycles) { t.Sim.Advance(d) }

// StopRequested reports a pending kill for cooperative shutdown.
func (t *Thread) StopRequested() bool { return t.Sim.StopRequested() }

// Socket returns the socket the thread is pinned to.
func (t *Thread) Socket() int { return t.kern.mach.Core(t.CoreID).Socket }

// Load performs a timed read of virtual address va and returns the access
// outcome; the latency is what a rdtsc-bracketed load would measure.
func (t *Thread) Load(va uint64) machine.Access {
	return t.kern.mach.Load(t.Sim, t.CoreID, t.translate(va))
}

// translate returns va's physical address, panicking on a segfault.
func (t *Thread) translate(va uint64) uint64 {
	pa, err := t.Proc.Translate(va)
	if err != nil {
		panic(err)
	}
	return pa
}

// Store performs a timed write to va. Stores to read-only (KSM-merged or
// COW) pages fault: the kernel un-merges the page, charges FaultLatency,
// and the store proceeds against the private copy.
func (t *Thread) Store(va uint64) machine.Access {
	pa, faulted := t.storeTarget(va)
	a := t.kern.mach.Store(t.Sim, t.CoreID, pa)
	if faulted {
		t.Sim.Advance(t.kern.FaultLatency)
		a.Latency += t.kern.FaultLatency
	}
	return a
}

// storeTarget returns the physical address a store to va writes,
// breaking COW first (and reporting the fault) when the mapping is
// read-only. It panics on a segfault.
func (t *Thread) storeTarget(va uint64) (pa uint64, faulted bool) {
	pte := t.Proc.PTEOf(va)
	if pte == nil {
		panic(fmt.Sprintf("kernel: segfault: store to %#x", va))
	}
	if !pte.Writable {
		if err := t.kern.cowBreak(t.Proc, va/PageSize, pte); err != nil {
			panic(err)
		}
		t.Faults++
		faulted = true
	}
	return t.translate(va), faulted
}

// Flush evicts va's line from every cache (clflush). Like the real
// instruction it needs only read access to the page.
func (t *Thread) Flush(va uint64) machine.Access {
	return t.kern.mach.Flush(t.Sim, t.CoreID, t.translate(va))
}

// Preempt simulates the thread being context-switched out for d cycles
// (the OS noise source of §VII-A's re-synchronization discussion).
func (t *Thread) Preempt(d sim.Cycles) { t.Sim.Advance(d) }

package kernel

import (
	"fmt"

	"coherentleak/internal/machine"
	"coherentleak/internal/sim"
)

// This file implements the access-stream executor. A stream is a kernel
// thread that owns no goroutine (a sim stepped thread): its refill
// callback, a generator, flattens the next straight-line run of memory
// operations into a Program — a preflattened op array with pre-drawn
// addresses and cached virtual-to-physical translations — and the
// executor steps through it one scheduling slot at a time. Per
// operation it performs the machine work untimed (machine.LoadTimed and
// friends), then advances by the latency, then by the COW FaultLatency if
// the store faulted, then counts the op, then advances by the think time:
// exactly the slots of a hand-written thread body issuing kernel.Thread
// Load/Store/Flush and Advance(think). Two policies decide how those
// slots are scheduled:
//
//   - interp (the reference): every advance is its own scheduling point.
//   - compiled: the latency and think advances fuse into one.
//
// The two are bit-identical by contract. The argument, op by op: the
// machine work runs at the same thread-local time T in both modes
// (before any advance), so the global machine-operation order — and
// with it every RNG draw — is unchanged; the fused advance parks the
// thread at the same final time T+latency+think; and the only
// observation the fusion skips is the scheduler's stop-predicate
// evaluation at the intermediate time T+latency. That evaluation is
// provably redundant when the active drive declares its stop structure
// (sim.World.RunUntilDeadline): a clock-free predicate cannot change
// value between T and T+latency because no other thread — and no
// machine work — runs in between, and the deadline comparison is
// checked explicitly against the fuse horizon. Whenever the proof
// obligation fails — an opaque RunUntil predicate, an attached trace
// observer (whose event is due at the intermediate slot, in cycle
// order), a deadline or cycle-limit crossing, a zero think time, a store
// that takes the COW fault — the op keeps the split slots, and is
// counted as unfused.
//
// The goroutine-loop oracle the executor is checked against lives in
// internal/kernel/difftest.

// OpKind is the operation selector of one Program slot.
type OpKind uint8

const (
	// OpLoad is a timed read.
	OpLoad OpKind = iota
	// OpStore is a timed write (COW faults take the faulting path).
	OpStore
	// OpFlush is a clflush of the address's line.
	OpFlush
)

func (k OpKind) String() string {
	switch k {
	case OpLoad:
		return "load"
	case OpStore:
		return "store"
	case OpFlush:
		return "flush"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

// StreamOp is one preflattened operation: an access to VA followed by
// Think cycles of non-memory work.
type StreamOp struct {
	Kind  OpKind
	VA    uint64
	Think sim.Cycles
}

// Program is a straight-line run of operations produced by a stream's
// refill. It caches each operation's physical translation against the
// kernel's mapping epoch, so steady-state execution performs no page
// table walks; any mapping mutation anywhere in the kernel invalidates
// the cache and the next issued operation re-resolves it.
type Program struct {
	proc *Process
	ops  []StreamOp

	// pa[i] is op i's cached physical address; valid only when
	// resolvedAt matches the kernel's mapping epoch and ok[i] is set.
	// ok[i] is false for unmapped addresses and for stores through
	// read-only (COW/KSM) mappings, which must take the faulting path.
	pa         []uint64
	ok         []bool
	resolvedAt uint64
	resolved   bool
}

// reset empties the program for refilling, keeping its buffers.
func (p *Program) reset() {
	p.ops = p.ops[:0]
	p.pa = p.pa[:0]
	p.ok = p.ok[:0]
	p.resolved = false
}

// Load appends a read of va followed by think cycles.
func (p *Program) Load(va uint64, think sim.Cycles) { p.add(OpLoad, va, think) }

// Store appends a write to va followed by think cycles.
func (p *Program) Store(va uint64, think sim.Cycles) { p.add(OpStore, va, think) }

// Flush appends a clflush of va followed by think cycles.
func (p *Program) Flush(va uint64, think sim.Cycles) { p.add(OpFlush, va, think) }

func (p *Program) add(k OpKind, va uint64, think sim.Cycles) {
	p.ops = append(p.ops, StreamOp{Kind: k, VA: va, Think: think})
	p.pa = append(p.pa, 0)
	p.ok = append(p.ok, false)
	p.resolved = false
}

// resolve (re)fills the translation cache for the current mapping epoch.
func (p *Program) resolve(epoch uint64) {
	for i := range p.ops {
		op := &p.ops[i]
		pte := p.proc.PTEOf(op.VA)
		if pte == nil || (op.Kind == OpStore && !pte.Writable) {
			p.ok[i] = false
			continue
		}
		p.pa[i] = pte.Frame.Base() + op.VA%PageSize
		p.ok[i] = true
	}
	p.resolvedAt = epoch
	p.resolved = true
}

// StreamStats counts access-stream executor activity for one kernel.
// All counters are cumulative across programs and threads.
type StreamStats struct {
	// InterpOps counts operations executed under the interp kernel.
	InterpOps uint64
	// CompiledOps counts compiled-kernel operations whose latency and
	// think advances were fused.
	CompiledOps uint64
	// UnfusedOps counts compiled-kernel operations that kept the split
	// slots because the fusion proof did not hold.
	UnfusedOps uint64
	// FallbackOps counts operations (under either kernel) that missed the
	// translation cache and took the per-op faulting path: stores through
	// read-only (COW/KSM) mappings and unmapped addresses.
	FallbackOps uint64
}

// streamSlot is the scheduling slot a stream resumes in.
type streamSlot uint8

const (
	slotIssue   streamSlot = iota // issue op i
	slotLatency                   // op i's latency has elapsed
	slotFault                     // op i's COW fault latency has elapsed
)

// stream is the executor state of one access stream.
type stream struct {
	t        *Thread
	prog     *Program
	refill   func(*Program) bool
	ops      *uint64
	compiled bool

	i    int        // the op in flight, or the next to issue
	slot streamSlot // where the next step resumes
	// The in-flight op's physical address, access outcome and whether
	// its store took a COW fault.
	pa      uint64
	acc     machine.Access
	faulted bool
}

// SpawnStream creates a thread of proc pinned to global core id that
// executes an access stream and owns no goroutine. Whenever its current
// program is exhausted it calls refill with the emptied program to
// append the next operations; refill returns false to end the thread.
// ops, when non-nil, is incremented after each operation's access
// completes and before its think advance — the accounting point
// hand-written workloads use — so externally observed counts match a
// hand-written loop even if the thread is stopped mid-think (a fused op
// is counted when issued, so under the compiled schedule a stop that
// lands inside its latency leaves the count one ahead). The machine
// config's Kernel selects the interp or compiled schedule. A pending
// stop ends the stream at its next scheduling slot.
func (k *Kernel) SpawnStream(proc *Process, core int, name string, refill func(*Program) bool, ops *uint64) *Thread {
	t := k.newThread(proc, core, name)
	s := &stream{
		t:        t,
		prog:     &Program{proc: proc},
		refill:   refill,
		ops:      ops,
		compiled: k.mach.Config().CompiledKernel(),
	}
	t.Sim = k.world.SpawnStep(t.simName(name), s.step)
	return t
}

// step runs one scheduling slot of the stream.
func (s *stream) step(*sim.Thread) (sim.Cycles, bool) {
	p := s.prog
	for {
		switch s.slot {
		case slotIssue:
			if s.i == len(p.ops) {
				p.reset()
				if !s.refill(p) {
					return 0, true
				}
				s.i = 0
				continue
			}
			return s.issue()
		case slotLatency:
			if mach := s.t.kern.mach; mach.Traced() {
				mach.Observe(s.t.Sim, s.t.CoreID, s.pa, p.ops[s.i].Kind.String(), s.acc)
			}
			if s.faulted {
				s.slot = slotFault
				return s.t.kern.FaultLatency, false
			}
		}
		// The op's access is complete: count it, then think.
		st := &s.t.kern.Stream
		if s.compiled {
			st.UnfusedOps++
		} else {
			st.InterpOps++
		}
		if s.ops != nil {
			*s.ops++
		}
		think := p.ops[s.i].Think
		s.i++
		s.slot = slotIssue
		if think > 0 {
			return think, false
		}
	}
}

// issue performs op i's machine work at the thread's current time and
// returns the first advance: the latency alone, or — when the compiled
// schedule may fuse — latency plus think, with the op already counted.
func (s *stream) issue() (sim.Cycles, bool) {
	t, k, p := s.t, s.t.kern, s.prog
	if !p.resolved || p.resolvedAt != k.mapEpoch {
		p.resolve(k.mapEpoch)
	}
	op := &p.ops[s.i]
	if p.ok[s.i] {
		s.pa, s.faulted = p.pa[s.i], false
	} else {
		// Unmapped (segfaults exactly as Thread.Load would) or a store
		// that must take the COW faulting path.
		k.Stream.FallbackOps++
		if op.Kind == OpStore {
			s.pa, s.faulted = t.storeTarget(op.VA)
		} else {
			s.pa, s.faulted = t.translate(op.VA), false
		}
	}
	mach := k.mach
	switch op.Kind {
	case OpLoad:
		s.acc = mach.LoadTimed(t.Sim, t.CoreID, s.pa)
	case OpStore:
		s.acc = mach.StoreTimed(t.Sim, t.CoreID, s.pa)
	case OpFlush:
		s.acc = mach.FlushTimed(t.Sim, t.CoreID, s.pa)
	}
	// Fuse when the split schedule's intermediate slot at now+latency is
	// unobservable: below the drive's stop horizon and, with a cycle
	// limit, not past it (the limit is checked at every advance, so a
	// split mirrors the abort time exactly). The horizon is re-read per
	// op: a stream can park across the end of one drive and into another
	// with a different stop structure.
	if s.compiled && !s.faulted && op.Think > 0 && !mach.Traced() {
		world := k.world
		now, total := t.Sim.Now(), s.acc.Latency+op.Think
		if deadline, ok := world.FuseHorizon(); ok && now+s.acc.Latency <= deadline &&
			(world.CycleLimit() == 0 || now+total <= world.CycleLimit()) {
			k.Stream.CompiledOps++
			if s.ops != nil {
				*s.ops++
			}
			s.i++
			return total, false
		}
	}
	s.slot = slotLatency
	return s.acc.Latency, false
}

package coherence

import (
	"fmt"
	"math/rand"
	"testing"
)

// dirModel is the reference semantics of Directory: a plain map with
// the same reclaim rules (a record with no sharers and no LLC copy is
// deleted by the helpers that can empty it).
type dirModel map[uint64]DirEntry

func (m dirModel) apply(op, line uint64, core int) {
	e, ok := m[line]
	switch op {
	case 0: // AddSharer
		e.Sharers |= 1 << uint(core)
		if e.Sharers&(e.Sharers-1) != 0 {
			e.OwnerDirty = false
		}
	case 1: // RemoveSharer
		if !ok {
			return
		}
		e.Sharers &^= 1 << uint(core)
		if e.Sharers == 0 {
			e.OwnerDirty = false
			if !e.LLCValid {
				delete(m, line)
				return
			}
		}
	case 2: // SetOwnerDirty
		e.OwnerDirty = true
	case 3: // MarkClean
		e.LLCValid, e.OwnerDirty = true, false
	case 4: // InvalidateLLC
		if !ok {
			return
		}
		e.LLCValid = false
		if e.Sharers == 0 {
			delete(m, line)
			return
		}
	case 5: // Clear
		delete(m, line)
		return
	}
	m[line] = e
}

func applyDir(d *Directory, op, line uint64, core int) {
	switch op {
	case 0:
		d.AddSharer(line, core)
	case 1:
		d.RemoveSharer(line, core)
	case 2:
		d.SetOwnerDirty(line)
	case 3:
		d.MarkClean(line)
	case 4:
		d.InvalidateLLC(line)
	case 5:
		d.Clear(line)
	}
}

// checkTable verifies the table's own invariants: used counts the live
// slots, the table is at most half full, and every record is reachable
// from its home slot without crossing an empty slot (which is what
// backward-shift deletion must preserve).
func checkTable(d *Directory) error {
	live := 0
	for i, s := range d.slots {
		if s.key == 0 {
			continue
		}
		live++
		for j := dirHash(s.key&^flagBits) & d.mask; j != uint64(i); j = (j + 1) & d.mask {
			if d.slots[j].key == 0 {
				return fmt.Errorf("slot %d (line %#x) unreachable: empty slot %d on its probe path", i, s.key&^flagBits, j)
			}
		}
	}
	if live != d.used {
		return fmt.Errorf("%d live slots, used = %d", live, d.used)
	}
	if 2*d.used > len(d.slots) {
		return fmt.Errorf("%d records in %d slots", d.used, len(d.slots))
	}
	return nil
}

// compareDir checks every observable of d against the model, over the
// whole pool of lines the run touches.
func compareDir(d *Directory, m dirModel, pool []uint64) error {
	if err := checkTable(d); err != nil {
		return err
	}
	if d.Lines() != len(m) {
		return fmt.Errorf("Lines() = %d, model has %d", d.Lines(), len(m))
	}
	for _, line := range pool {
		want, wantOK := m[line]
		got, ok := d.Lookup(line)
		if ok != wantOK || got != want {
			return fmt.Errorf("Lookup(%#x) = %+v,%v; model %+v,%v", line, got, ok, want, wantOK)
		}
		if d.SharerMask(line) != want.Sharers {
			return fmt.Errorf("SharerMask(%#x) = %b; model %b", line, d.SharerMask(line), want.Sharers)
		}
	}
	n := 0
	prev := uint64(0)
	var err error
	d.ForEach(func(line uint64, e DirEntry) {
		if err != nil {
			return
		}
		if n > 0 && line <= prev {
			err = fmt.Errorf("ForEach out of order: %#x after %#x", line, prev)
		} else if want, ok := m[line]; !ok || e != want {
			err = fmt.Errorf("ForEach(%#x) = %+v; model %+v,%v", line, e, want, ok)
		}
		prev = line
		n++
	})
	if err == nil && n != len(m) {
		err = fmt.Errorf("ForEach visited %d records, model has %d", n, len(m))
	}
	return err
}

// homedLines returns n distinct aligned lines whose home slot in a table
// of the given size is one of homes, ascending from line 0.
func homedLines(n int, size uint64, homes ...uint64) []uint64 {
	var out []uint64
	for line := uint64(0); len(out) < n; line += 64 {
		h := dirHash(line) & (size - 1)
		for _, want := range homes {
			if h == want {
				out = append(out, line)
				break
			}
		}
	}
	return out
}

// runDirModel drives d and the model through ops random operations on
// lines drawn from pool, comparing them after every one. addBias skews
// the draw towards operations that create records.
func runDirModel(t *testing.T, seed int64, pool []uint64, ops int, addBias float64) *Directory {
	t.Helper()
	const cores = 8
	rng := rand.New(rand.NewSource(seed))
	d := NewDirectory(cores)
	m := dirModel{}
	for k := 0; k < ops; k++ {
		op := uint64(rng.Intn(6))
		if rng.Float64() < addBias {
			op = uint64(rng.Intn(2)) * 3 // AddSharer or MarkClean
		}
		line := pool[rng.Intn(len(pool))]
		core := rng.Intn(cores)
		applyDir(d, op, line, core)
		m.apply(op, line, core)
		if err := compareDir(d, m, pool); err != nil {
			t.Fatalf("seed %d op %d (%d on %#x core %d): %v", seed, k, op, line, core, err)
		}
	}
	return d
}

// Clusters that wrap past the last slot: every line homes in the last
// three or first two slots of the initial 64-slot table, so the records
// form one long cluster across the wrap, and deletions land inside it.
// The pool is small enough that the table never grows.
func TestDirectoryModelWrappedClusters(t *testing.T) {
	pool := homedLines(30, minSlots, minSlots-3, minSlots-2, minSlots-1, 0, 1)
	for seed := int64(1); seed <= 20; seed++ {
		d := runDirModel(t, seed, pool, 3000, 0)
		if len(d.slots) != minSlots {
			t.Fatalf("table grew to %d slots; the wrap case needs %d", len(d.slots), minSlots)
		}
	}
}

// Deletions inside one long cluster whose records share a single home
// slot, where every backward shift moves a record by one slot.
func TestDirectoryModelSingleHomeCluster(t *testing.T) {
	pool := homedLines(24, minSlots, 10)
	for seed := int64(1); seed <= 20; seed++ {
		runDirModel(t, seed, pool, 3000, 0)
	}
}

// Growth: a pool far larger than the initial table, filled with
// add-biased operations so the table doubles several times mid-run,
// and then churned with unbiased ones that drop records again. Lines
// homed at the ends of the larger tables keep wrapping clusters in play
// after each doubling; line 0 checks that its key is still nonzero.
func TestDirectoryModelGrowth(t *testing.T) {
	var pool []uint64
	pool = append(pool, homedLines(40, 1024, 1021, 1022, 1023, 0)...)
	pool = append(pool, homedLines(40, 256, 254, 255, 0)...)
	for line := uint64(1 << 30); len(pool) < 700; line += 4096 + 64 {
		pool = append(pool, line)
	}
	d := runDirModel(t, 7, pool, 4000, 0.9)
	if len(d.slots) < 1024 {
		t.Fatalf("table only reached %d slots; growth not exercised", len(d.slots))
	}
	runDirModel(t, 8, pool, 4000, 0.3)
}

// An unaligned line address would collide with the flags packed into
// the key's low bits, so creating its record panics. Queries of one
// report it absent, and touch no record.
func TestDirectoryUnalignedLinePanics(t *testing.T) {
	d := NewDirectory(4)
	d.AddSharer(0x40, 1)
	d.MarkClean(0x40)
	for name, op := range map[string]func(){
		"AddSharer":     func() { d.AddSharer(0x41, 0) },
		"SetOwnerDirty": func() { d.SetOwnerDirty(0x7f) },
		"MarkClean":     func() { d.MarkClean(0x60) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on an unaligned line did not panic", name)
				}
			}()
			op()
		}()
	}
	if _, ok := d.Lookup(0x41); ok || d.SharerMask(0x43) != 0 {
		t.Error("unaligned query matched the record of line 0x40")
	}
	d.RemoveSharer(0x41, 1)
	d.InvalidateLLC(0x42)
	d.Clear(0x44)
	if e, ok := d.Lookup(0x40); !ok || e != (DirEntry{Sharers: 1 << 1, LLCValid: true}) || d.Lines() != 1 {
		t.Errorf("record of 0x40 changed by unaligned ops: %+v,%v lines=%d", e, ok, d.Lines())
	}
}

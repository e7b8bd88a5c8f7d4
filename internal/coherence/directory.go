package coherence

import (
	"fmt"
	"math/bits"
	"sort"
)

// Directory tracks, per cache line, which private caches hold a copy —
// the "core valid bits" vector the paper describes at the LLC (§VI-A).
// The census it maintains is exactly the information the covert channel
// abuses: one valid bit means the line is in E/M in some private cache and
// the miss must be forwarded to the owner; two or more mean the line is in
// S and the LLC's clean copy can answer directly.
//
// The implementation is a linear-probing hash table of 16-byte slots
// {key, sharers}. A line address has its low 6 bits zero, so the key
// packs the line with the record's flags (used, LLCValid, OwnerDirty);
// a zero key is an empty slot. Records exist only for lines with at
// least one sharer or a clean LLC copy. Four slots share a host cache
// line, so a probe mostly touches one line of table memory (no pointer
// chase, no GC-visible pointers). Deletion shifts the rest of the
// cluster back instead of leaving a tombstone, so a table under
// constant add/drop churn never degrades, and the table grows only by
// doubling, once it is half full. All mutation goes
// through the named helpers below; Lookup returns a copy, so writing to
// the returned entry does not change the directory.
type Directory struct {
	cores int

	// slots is the table; mask = len(slots)-1 (a power of two) and used
	// counts live records.
	slots []dirSlot
	mask  uint64
	used  int
}

// dirSlot is one table slot: the line address with the record's flags
// in its low bits, and the core-valid bit vector.
type dirSlot struct {
	key     uint64
	sharers uint64
}

// Flags packed into a key's low bits. flagUsed makes every live key
// nonzero, line 0 included.
const (
	flagUsed uint64 = 1 << iota
	flagLLCValid
	flagOwnerDirty

	// flagBits covers the bits below a 64-byte line boundary.
	flagBits uint64 = 63
)

// minSlots is the table's initial (and smallest) size.
const minSlots = 64

// DirEntry is the directory's view of one cache line.
type DirEntry struct {
	// Sharers is the core-valid bit vector: bit i set means private cache
	// i (core index within the socket's coherence domain) holds the line.
	Sharers uint64
	// LLCValid records whether the shared cache holds a clean copy that
	// can service misses directly.
	LLCValid bool
	// OwnerDirty records that the single sharer may have modified the
	// line (it is in E or M there), so the LLC copy is possibly stale.
	OwnerDirty bool
}

// NewDirectory returns a directory for a coherence domain of cores
// private caches. cores must be in (0, 64].
func NewDirectory(cores int) *Directory {
	if cores <= 0 || cores > 64 {
		panic(fmt.Sprintf("coherence: directory supports 1..64 cores, got %d", cores))
	}
	return &Directory{cores: cores, slots: make([]dirSlot, minSlots), mask: minSlots - 1}
}

// Cores returns the size of the coherence domain.
func (d *Directory) Cores() int { return d.cores }

// dirHash spreads line addresses (low 6 bits always zero) over the
// table with a Fibonacci multiplicative hash. The multiply concentrates
// entropy in the high bits, and the table indexes with low bits, so the
// high half is folded down — without the fold, sequential lines form
// arithmetic probe chains and linear probing degenerates.
func dirHash(line uint64) uint64 {
	h := line * 0x9E3779B97F4A7C15
	return h ^ h>>32
}

// probe walks line's cluster from its home slot. It returns the slot
// holding line's record and true, or the empty slot that ends the
// cluster (where an insert of line goes) and false. An unaligned line
// never matches a key, so it reads as absent.
func (d *Directory) probe(line uint64) (uint64, bool) {
	for i := dirHash(line) & d.mask; ; i = (i + 1) & d.mask {
		k := d.slots[i].key
		if k == 0 {
			return i, false
		}
		if k&^flagBits == line {
			return i, true
		}
	}
}

// find returns the index of line's slot, or -1 when it has no record.
func (d *Directory) find(line uint64) int {
	if i, ok := d.probe(line); ok {
		return int(i)
	}
	return -1
}

// entMake returns the index of line's slot, creating an empty record if
// needed. The index is valid until the next entMake or drop.
func (d *Directory) entMake(line uint64) int {
	if line&flagBits != 0 {
		panic(fmt.Sprintf("coherence: directory line %#x is not 64-byte aligned", line))
	}
	i, ok := d.probe(line)
	if ok {
		return int(i)
	}
	if (d.used+1)*2 > len(d.slots) {
		d.grow()
		i, _ = d.probe(line)
	}
	d.slots[i].key = line | flagUsed
	d.used++
	return int(i)
}

// grow doubles the table and reinserts every record.
func (d *Directory) grow() {
	old := d.slots
	d.slots = make([]dirSlot, 2*len(old))
	d.mask = uint64(len(d.slots) - 1)
	for _, s := range old {
		if s.key != 0 {
			i, _ := d.probe(s.key &^ flagBits)
			d.slots[i] = s
		}
	}
}

// drop removes the record in slot i by backward-shift deletion. The
// scan walks the rest of the cluster; a record whose home slot lies
// cyclically at or before the hole (its displacement from home is at
// least its distance back to the hole) moves into the hole, which then
// reopens where it was. Every remaining record thus stays reachable
// from its home, and no tombstone is left.
func (d *Directory) drop(i int) {
	hole := uint64(i)
	for j := (hole + 1) & d.mask; d.slots[j].key != 0; j = (j + 1) & d.mask {
		home := dirHash(d.slots[j].key&^flagBits) & d.mask
		if (j-home)&d.mask >= (j-hole)&d.mask {
			d.slots[hole] = d.slots[j]
			hole = j
		}
	}
	d.slots[hole] = dirSlot{}
	d.used--
}

// Lookup returns a copy of the entry for line; ok is false when the
// directory has no record (no sharers and no LLC copy). Mutating the
// returned value does not change the directory — use the mutation
// helpers (AddSharer, MarkClean, InvalidateLLC, ...) instead.
func (d *Directory) Lookup(line uint64) (e DirEntry, ok bool) {
	if i := d.find(line); i >= 0 {
		return d.slots[i].entry(), true
	}
	return DirEntry{}, false
}

// entry unpacks a slot into its DirEntry.
func (s dirSlot) entry() DirEntry {
	return DirEntry{Sharers: s.sharers, LLCValid: s.key&flagLLCValid != 0, OwnerDirty: s.key&flagOwnerDirty != 0}
}

// SharerCount returns the number of private caches holding line.
func (d *Directory) SharerCount(line uint64) int {
	return bits.OnesCount64(d.SharerMask(line))
}

// SharerMask returns the core-valid bit vector for line (zero when the
// directory has no record). It is the allocation-free iteration surface
// for the per-access hot path; callers walk it with bits.TrailingZeros64.
func (d *Directory) SharerMask(line uint64) uint64 {
	if i := d.find(line); i >= 0 {
		return d.slots[i].sharers
	}
	return 0
}

// IsSharer reports whether core holds line.
func (d *Directory) IsSharer(line uint64, core int) bool {
	d.check(core)
	return d.SharerMask(line)&(1<<uint(core)) != 0
}

// SoleSharer returns the single sharer of line, or -1 if the sharer count
// is not exactly one.
func (d *Directory) SoleSharer(line uint64) int {
	s := d.SharerMask(line)
	if bits.OnesCount64(s) != 1 {
		return -1
	}
	return bits.TrailingZeros64(s)
}

// Sharers returns the core indices currently holding line, ascending.
// It allocates; hot paths iterate SharerMask instead.
func (d *Directory) Sharers(line uint64) []int {
	v := d.SharerMask(line)
	if v == 0 {
		return nil
	}
	out := make([]int, 0, bits.OnesCount64(v))
	for v != 0 {
		c := bits.TrailingZeros64(v)
		out = append(out, c)
		v &^= 1 << uint(c)
	}
	return out
}

// AddSharer records that core now holds line. If the line previously had
// exactly one (possibly dirty) owner, the owner's write-back duty is the
// caller's responsibility; the directory only clears the dirty mark when
// MarkClean is called.
func (d *Directory) AddSharer(line uint64, core int) {
	d.check(core)
	s := &d.slots[d.entMake(line)]
	s.sharers |= 1 << uint(core)
	if s.sharers&(s.sharers-1) != 0 {
		// Two or more sharers implies every copy is clean (S state).
		s.key &^= flagOwnerDirty
	}
}

// RemoveSharer records that core no longer holds line (eviction or
// invalidation of the private copy). Empty entries without an LLC copy
// are garbage-collected.
func (d *Directory) RemoveSharer(line uint64, core int) {
	d.check(core)
	i := d.find(line)
	if i < 0 {
		return
	}
	s := &d.slots[i]
	s.sharers &^= 1 << uint(core)
	if s.sharers == 0 {
		s.key &^= flagOwnerDirty
		if s.key&flagLLCValid == 0 {
			d.drop(i)
		}
	}
}

// SetOwnerDirty marks the sole sharer's copy as possibly modified
// (the line is in E or M in that private cache), meaning the LLC copy may
// be stale and misses must be forwarded to the owner.
func (d *Directory) SetOwnerDirty(line uint64) {
	d.slots[d.entMake(line)].key |= flagOwnerDirty
}

// MarkClean records that the LLC holds a clean, current copy of the line
// (after a write-back or a fill from memory).
func (d *Directory) MarkClean(line uint64) {
	s := &d.slots[d.entMake(line)]
	s.key = s.key&^flagOwnerDirty | flagLLCValid
}

// InvalidateLLC drops the clean-copy mark (LLC eviction of the line, or
// a store making every LLC copy stale). Entries left with no sharers and
// no LLC copy are reclaimed, so steady-state runs do not accumulate dead
// records.
func (d *Directory) InvalidateLLC(line uint64) {
	i := d.find(line)
	if i < 0 {
		return
	}
	d.slots[i].key &^= flagLLCValid
	if d.slots[i].sharers == 0 {
		d.drop(i)
	}
}

// Clear removes every record of line (clflush reaching the directory).
func (d *Directory) Clear(line uint64) {
	if i := d.find(line); i >= 0 {
		d.drop(i)
	}
}

// Census classifies a line the way the paper's §VI-A service-path logic
// does, from the core-valid bit population count.
type Census uint8

const (
	// CensusNone: no private cache holds the line.
	CensusNone Census = iota
	// CensusOwned: exactly one private cache holds it (E or M there).
	CensusOwned
	// CensusShared: two or more private caches hold it (S everywhere).
	CensusShared
)

func (c Census) String() string {
	switch c {
	case CensusNone:
		return "none"
	case CensusOwned:
		return "owned"
	case CensusShared:
		return "shared"
	default:
		return fmt.Sprintf("Census(%d)", uint8(c))
	}
}

// CensusOf returns the sharer census for line.
func (d *Directory) CensusOf(line uint64) Census {
	switch n := bits.OnesCount64(d.SharerMask(line)); {
	case n == 0:
		return CensusNone
	case n == 1:
		return CensusOwned
	default:
		return CensusShared
	}
}

// Lines returns the number of lines with directory records (for tests and
// capacity accounting).
func (d *Directory) Lines() int { return d.used }

// ForEach calls fn for every directory record in ascending line order —
// a deterministic snapshot for state digests and dumps.
func (d *Directory) ForEach(fn func(line uint64, e DirEntry)) {
	live := make([]dirSlot, 0, d.used)
	for _, s := range d.slots {
		if s.key != 0 {
			live = append(live, s)
		}
	}
	// Lines are distinct, so ordering by key orders by line.
	sort.Slice(live, func(i, j int) bool { return live[i].key < live[j].key })
	for _, s := range live {
		fn(s.key&^flagBits, s.entry())
	}
}

func (d *Directory) check(core int) {
	if core < 0 || core >= d.cores {
		panic(fmt.Sprintf("coherence: core %d outside directory domain of %d", core, d.cores))
	}
}

package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// ManifestVersion identifies the on-disk manifest layout. A version
// bump invalidates old caches wholesale.
const ManifestVersion = 1

type manifestFile struct {
	Version int               `json:"version"`
	Entries map[string]*Entry `json:"entries"`
}

// journalSuffix names the append-only journal beside a snapshot:
// manifest.json's journal is manifest.json.journal.
const journalSuffix = ".journal"

// journalFloor is the journal length Persist always tolerates before it
// compacts, so a small snapshot is not rewritten every few jobs.
const journalFloor = 64

// journalLine is one journal record: an entry stored after the
// snapshot was written. Lines replay in order, so a later line wins.
type journalLine struct {
	Key   string `json:"key"`
	Entry *Entry `json:"entry"`
}

// Memory is the in-process cell store: a map with optional LRU
// bounding, plus persistence for single-process restarts. Save writes
// a whole snapshot; Persist appends only the entries stored since the
// last Save or Persist to a journal beside it; LoadMemory reads the
// snapshot and replays the journal. Safe for concurrent use by the
// Runner's workers and for sharing across daemon jobs: lookups, stores
// and saves may all overlap.
type Memory struct {
	statsCounter

	mu      sync.Mutex
	entries map[string]*Entry
	// pending holds the keys stored since the last Save or Persist took
	// them. A pruned key leaves it together with its entry.
	pending map[string]struct{}
	// limit bounds the entry count; 0 means unbounded. When a Store
	// would exceed it, the least-recently-used entry is evicted.
	limit int
	// clock is a logical recency counter; lastUse[key] holds the tick of
	// the key's last hit or store. Recency is in-memory only — a loaded
	// manifest starts with every entry equally old, which is fine: the
	// first sweep over it refreshes what is live.
	clock   uint64
	lastUse map[string]uint64
	// saveMu serializes Save and Persist, so two jobs finishing
	// simultaneously write in turn, and guards the on-disk state below.
	// A Persist holds it from taking the pending keys until they are
	// durable: once a later Persist acquires it, every key an earlier
	// one took is on disk, or that one failed and left disk unknown so
	// the later one writes a whole snapshot.
	saveMu sync.Mutex
	// disk is the manifest path whose snapshot and journal this store
	// last wrote or loaded cleanly; "" when that state is unknown, and
	// the next Persist then writes a whole snapshot instead of
	// appending. snapLen counts the snapshot's entries and journalLen
	// the journal's lines (0 when the journal does not exist).
	disk       string
	snapLen    int
	journalLen int
}

// NewMemory returns an empty in-memory store.
func NewMemory() *Memory {
	return &Memory{
		entries: make(map[string]*Entry),
		pending: make(map[string]struct{}),
		lastUse: make(map[string]uint64),
	}
}

// SetLimit bounds the cache to at most n entries (0 restores unbounded
// growth). If the store already holds more, the least-recently-used
// entries are pruned immediately.
func (m *Memory) SetLimit(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.limit = n
	m.pruneLocked()
}

// pruneLocked evicts least-recently-used entries until the limit holds.
// Eviction scans for the minimum recency tick — O(n) per eviction, but
// evictions are rare (one per Store once the cache is full) and n is
// the cache bound itself. Ties break on the smaller key so eviction
// order is deterministic.
func (m *Memory) pruneLocked() {
	if m.limit <= 0 {
		return
	}
	for len(m.entries) > m.limit {
		var victim string
		var oldest uint64
		first := true
		for k := range m.entries {
			use := m.lastUse[k]
			if first || use < oldest || (use == oldest && k < victim) {
				victim, oldest, first = k, use, false
			}
		}
		delete(m.entries, victim)
		delete(m.pending, victim)
		delete(m.lastUse, victim)
	}
}

// LoadMemory reads a persisted snapshot and replays its journal
// (path+".journal") in order, so a later line wins. A missing snapshot
// starts from an empty one; a version mismatch yields an empty store
// (the cache simply starts cold) and ignores the journal; an unreadable
// or malformed snapshot is reported as an error. Null entries are
// dropped, and so are torn or unparsable journal lines, which is what a
// crash mid-append leaves; the first Persist after such a load writes a
// whole snapshot instead of appending behind the damage.
func LoadMemory(path string) (*Memory, error) {
	m := NewMemory()
	b, err := os.ReadFile(path)
	switch {
	case os.IsNotExist(err):
		// No snapshot yet: the journal alone may hold entries.
	case err != nil:
		return nil, fmt.Errorf("store: manifest: %w", err)
	default:
		var f manifestFile
		if err := json.Unmarshal(b, &f); err != nil {
			return nil, fmt.Errorf("store: manifest %s: %w", path, err)
		}
		if f.Version != ManifestVersion {
			return m, nil
		}
		for k, e := range f.Entries {
			if e == nil {
				delete(f.Entries, k)
			}
		}
		if f.Entries != nil {
			m.entries = f.Entries
		}
		m.snapLen = len(m.entries)
	}
	clean, err := m.replay(path + journalSuffix)
	if err != nil {
		return nil, err
	}
	if clean {
		m.disk = path
	}
	return m, nil
}

// replay applies a journal's lines to a store under construction and
// reports whether every line was whole and well-formed.
func (m *Memory) replay(path string) (clean bool, err error) {
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return true, nil
	}
	if err != nil {
		return false, fmt.Errorf("store: journal: %w", err)
	}
	clean = true
	for len(b) > 0 {
		line := b
		if i := bytes.IndexByte(b, '\n'); i >= 0 {
			line, b = b[:i], b[i+1:]
		} else {
			// No newline: the append that wrote this line was cut short.
			clean, b = false, nil
		}
		var l journalLine
		if json.Unmarshal(line, &l) != nil || l.Entry == nil {
			clean = false
			continue
		}
		m.entries[l.Key] = l.Entry
		m.journalLen++
	}
	return clean, nil
}

// Save writes the store atomically: a consistent snapshot is
// marshalled to a temp file in the destination directory, fsynced, and
// renamed over path, so a crash mid-save (or a reader racing a writer)
// can never observe a torn manifest. The journal beside path is then
// removed; a crash before the removal leaves a redundant journal, whose
// replay is idempotent. Concurrent Saves and Persists are serialized;
// concurrent Stores continue without blocking on the disk write (they
// land in the next Save or Persist).
func (m *Memory) Save(path string) error {
	m.saveMu.Lock()
	defer m.saveMu.Unlock()
	return m.saveLocked(path)
}

// saveLocked is Save with saveMu held.
func (m *Memory) saveLocked(path string) error {
	// Snapshot the map under the entry lock, marshal outside it so a
	// large manifest doesn't stall the Runner's workers. Entries are
	// immutable once stored, so sharing pointers is safe.
	m.mu.Lock()
	snap := make(map[string]*Entry, len(m.entries))
	for k, e := range m.entries {
		snap[k] = e
	}
	clear(m.pending)
	m.mu.Unlock()
	if err := writeSnapshot(path, snap); err != nil {
		// What was pending is not durable: the next Persist writes a
		// whole snapshot again.
		m.disk = ""
		return err
	}
	m.disk, m.snapLen, m.journalLen = path, len(snap), 0
	if err := os.Remove(path + journalSuffix); err != nil && !os.IsNotExist(err) {
		m.disk = ""
		return fmt.Errorf("store: journal: %w", err)
	}
	return nil
}

// writeSnapshot writes a whole manifest file atomically.
func writeSnapshot(path string, snap map[string]*Entry) error {
	b, err := json.MarshalIndent(manifestFile{Version: ManifestVersion, Entries: snap}, "", "  ")
	if err != nil {
		return fmt.Errorf("store: manifest: %w", err)
	}

	tmp, err := os.CreateTemp(filepath.Dir(path), ".manifest-*")
	if err != nil {
		return fmt.Errorf("store: manifest: %w", err)
	}
	cleanup := func(err error) error {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: manifest: %w", err)
	}
	if _, err := tmp.Write(append(b, '\n')); err != nil {
		return cleanup(err)
	}
	if err := tmp.Sync(); err != nil {
		return cleanup(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: manifest: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: manifest: %w", err)
	}
	// Sync the directory so the rename itself survives a crash.
	syncDir(filepath.Dir(path))
	return nil
}

// Persist makes every entry stored since the last Save or Persist
// durable at path, at a cost proportional to those entries:
//   - with none pending, it returns without any I/O;
//   - otherwise it appends one JSON line per entry to path+".journal"
//     in a single write and fsyncs it (creating the journal also syncs
//     the directory);
//   - when the journal would then hold more lines than the snapshot has
//     entries (and more than journalFloor), it writes a whole snapshot
//     with Save instead, which removes the journal.
//
// When this store's on-disk state at path is unknown (it was created
// empty, loaded a damaged journal or another version, or a write
// failed), Persist writes a whole snapshot even with nothing pending.
// Persist holds saveMu until what it wrote is durable, so a caller
// whose Stores all returned before it called Persist has every one of
// them on disk when Persist returns nil.
func (m *Memory) Persist(path string) error {
	m.saveMu.Lock()
	defer m.saveMu.Unlock()

	m.mu.Lock()
	switch {
	case m.disk == path && len(m.pending) == 0:
		m.mu.Unlock()
		return nil
	case m.disk != path || m.journalLen+len(m.pending) > max(m.snapLen, journalFloor):
		m.mu.Unlock()
		return m.saveLocked(path)
	}
	lines := make([]journalLine, 0, len(m.pending))
	for k := range m.pending {
		lines = append(lines, journalLine{Key: k, Entry: m.entries[k]})
	}
	clear(m.pending)
	m.mu.Unlock()

	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, l := range lines {
		if err := enc.Encode(l); err != nil {
			m.disk = ""
			return fmt.Errorf("store: journal: %w", err)
		}
	}
	if err := appendSync(path+journalSuffix, buf.Bytes(), m.journalLen == 0); err != nil {
		// The journal may now end in a torn line, and what was taken is
		// not durable: the next Persist writes a whole snapshot instead.
		m.disk = ""
		return err
	}
	m.journalLen += len(lines)
	return nil
}

// appendSync appends b to the file at path in one write and fsyncs it.
// created says the file is new, so the directory is synced as well.
func appendSync(path string, b []byte, created bool) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("store: journal: %w", err)
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return fmt.Errorf("store: journal: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: journal: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: journal: %w", err)
	}
	if created {
		syncDir(filepath.Dir(path))
	}
	return nil
}

// syncDir fsyncs a directory so a rename or create in it survives a
// crash. Best-effort: some filesystems refuse to sync directories.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// Lookup returns the cached entry for key if its input digest matches.
func (m *Memory) Lookup(key, digest string) (*Entry, bool) {
	m.mu.Lock()
	e, ok := m.entries[key]
	if !ok || e.Digest != digest {
		m.mu.Unlock()
		m.miss()
		return nil, false
	}
	m.clock++
	m.lastUse[key] = m.clock
	m.mu.Unlock()
	m.hit()
	return e, true
}

// Store records a cell's output, replacing any stale entry. When a
// limit is set and the cache is full, the least-recently-used entry is
// evicted to make room.
func (m *Memory) Store(key string, e *Entry) {
	m.mu.Lock()
	m.entries[key] = e
	m.pending[key] = struct{}{}
	m.clock++
	m.lastUse[key] = m.clock
	m.pruneLocked()
	m.mu.Unlock()
	m.write()
}

// Len reports the number of cached cells.
func (m *Memory) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}

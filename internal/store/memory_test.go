package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func entry(digest string) *Entry {
	return &Entry{Digest: digest, Rows: []string{digest + "\trow"}, WallMillis: 1.5}
}

// fileState is a file's size and modification time, or ok=false when
// it does not exist.
type fileState struct {
	ok   bool
	size int64
	mod  int64
}

func stat(t *testing.T, path string) fileState {
	t.Helper()
	fi, err := os.Stat(path)
	if os.IsNotExist(err) {
		return fileState{}
	}
	if err != nil {
		t.Fatal(err)
	}
	return fileState{ok: true, size: fi.Size(), mod: fi.ModTime().UnixNano()}
}

func journalLines(t *testing.T, path string) int {
	t.Helper()
	b, err := os.ReadFile(path + journalSuffix)
	if os.IsNotExist(err) {
		return 0
	}
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Count(b, []byte("\n"))
}

func mustLoad(t *testing.T, path string) *Memory {
	t.Helper()
	m, err := LoadMemory(path)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestLoadMemoryDropsNullEntries is the regression test for a manifest
// holding {"k":null}: loading kept a nil entry and the next Lookup of
// that key dereferenced it. Null journal entries are dropped alike.
func TestLoadMemoryDropsNullEntries(t *testing.T) {
	path := filepath.Join(t.TempDir(), "manifest.json")
	snap := `{"version":1,"entries":{"k":null,"ok":{"digest":"d","rows":["r"],"wallMillis":1}}}`
	journal := `{"key":"j","entry":null}` + "\n" + `{"key":"k2","entry":null}` + "\n"
	if err := os.WriteFile(path, []byte(snap), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path+journalSuffix, []byte(journal), 0o644); err != nil {
		t.Fatal(err)
	}
	m := mustLoad(t, path)
	for _, k := range []string{"k", "j", "k2"} {
		if _, ok := m.Lookup(k, ""); ok {
			t.Fatalf("null entry %q hit", k)
		}
	}
	if _, ok := m.Lookup("ok", "d"); !ok {
		t.Fatal("valid entry lost")
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d, want 1", m.Len())
	}
}

// TestPersistAppendsOnlyNewEntries pins the per-job cost: nothing
// pending means no I/O at all, and a Persist appends exactly the
// entries stored since the previous one.
func TestPersistAppendsOnlyNewEntries(t *testing.T) {
	path := filepath.Join(t.TempDir(), "manifest.json")
	m := mustLoad(t, path)

	if err := m.Persist(path); err != nil {
		t.Fatal(err)
	}
	if stat(t, path).ok || stat(t, path+journalSuffix).ok {
		t.Fatal("Persist with nothing stored wrote a file")
	}

	m.Store("a", entry("da"))
	m.Store("b", entry("db"))
	if err := m.Persist(path); err != nil {
		t.Fatal(err)
	}
	if n := journalLines(t, path); n != 2 {
		t.Fatalf("journal has %d lines, want 2", n)
	}
	if stat(t, path).ok {
		t.Fatal("an append rewrote the snapshot")
	}

	before := stat(t, path+journalSuffix)
	m.Lookup("a", "da")
	if err := m.Persist(path); err != nil {
		t.Fatal(err)
	}
	if after := stat(t, path+journalSuffix); after != before {
		t.Fatalf("a Persist with nothing pending touched the journal: %+v -> %+v", before, after)
	}

	m.Store("c", entry("dc"))
	if err := m.Persist(path); err != nil {
		t.Fatal(err)
	}
	if n := journalLines(t, path); n != 3 {
		t.Fatalf("journal has %d lines, want 3", n)
	}
	loaded := mustLoad(t, path)
	for _, k := range []string{"a", "b", "c"} {
		if _, ok := loaded.Lookup(k, "d"+k); !ok {
			t.Fatalf("entry %s not durable", k)
		}
	}
}

// TestPersistCompacts pins the compaction rule: once the journal would
// hold more lines than the snapshot has entries (and more than the
// floor), Persist writes a whole snapshot and removes the journal.
func TestPersistCompacts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "manifest.json")
	m := mustLoad(t, path)
	for i := 0; i < journalFloor; i++ {
		m.Store(fmt.Sprint(i), entry("d"))
		if err := m.Persist(path); err != nil {
			t.Fatal(err)
		}
	}
	if n := journalLines(t, path); n != journalFloor || stat(t, path).ok {
		t.Fatalf("below the floor: journal %d lines, snapshot %v; want %d lines and none", n, stat(t, path).ok, journalFloor)
	}
	m.Store("x", entry("d"))
	if err := m.Persist(path); err != nil {
		t.Fatal(err)
	}
	if stat(t, path+journalSuffix).ok || !stat(t, path).ok {
		t.Fatal("crossing the floor did not compact into a snapshot")
	}
	// The threshold now follows the snapshot's size.
	for i := 0; i <= journalFloor; i++ {
		m.Store(fmt.Sprint("y", i), entry("d"))
		if err := m.Persist(path); err != nil {
			t.Fatal(err)
		}
	}
	if n := journalLines(t, path); n != journalFloor+1 {
		t.Fatalf("journal has %d lines, want %d (snapshot holds %d)", n, journalFloor+1, journalFloor+1)
	}
	if got := mustLoad(t, path).Len(); got != m.Len() {
		t.Fatalf("reloaded %d entries, want %d", got, m.Len())
	}
}

// TestPersistRetriesAfterFailedAppend: entries whose append failed are
// not durable, so the next Persist writes a whole snapshot even with
// nothing new pending.
func TestPersistRetriesAfterFailedAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "manifest.json")
	m := mustLoad(t, path)
	// A directory where the journal should be makes the append fail.
	if err := os.Mkdir(path+journalSuffix, 0o755); err != nil {
		t.Fatal(err)
	}
	m.Store("a", entry("da"))
	if err := m.Persist(path); err == nil {
		t.Fatal("append into a directory succeeded")
	}
	if err := os.Remove(path + journalSuffix); err != nil {
		t.Fatal(err)
	}
	if err := m.Persist(path); err != nil {
		t.Fatal(err)
	}
	if _, ok := mustLoad(t, path).Lookup("a", "da"); !ok {
		t.Fatal("entry of the failed append never became durable")
	}
}

// TestLoadMemoryReplaysJournalInOrder: journal lines override the
// snapshot and each other, later lines winning.
func TestLoadMemoryReplaysJournalInOrder(t *testing.T) {
	path := filepath.Join(t.TempDir(), "manifest.json")
	snap := `{"version":1,"entries":{"k":{"digest":"old","rows":null,"wallMillis":0}}}`
	journal := `{"key":"k","entry":{"digest":"mid","rows":null,"wallMillis":0}}` + "\n" +
		`{"key":"k","entry":{"digest":"new","rows":null,"wallMillis":0}}` + "\n"
	os.WriteFile(path, []byte(snap), 0o644)
	os.WriteFile(path+journalSuffix, []byte(journal), 0o644)
	m := mustLoad(t, path)
	if _, ok := m.Lookup("k", "new"); !ok {
		t.Fatal("the last journal line did not win")
	}
}

// TestTornJournalIsDroppedAndCompacted: a crash mid-append leaves a
// line without its newline. Loading drops it and keeps the rest, and
// the next Persist writes a snapshot rather than appending behind it.
func TestTornJournalIsDroppedAndCompacted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "manifest.json")
	m := mustLoad(t, path)
	m.Store("a", entry("da"))
	m.Store("b", entry("db"))
	if err := m.Persist(path); err != nil {
		t.Fatal(err)
	}
	b, _ := os.ReadFile(path + journalSuffix)
	os.WriteFile(path+journalSuffix, b[:len(b)-10], 0o644)

	loaded := mustLoad(t, path)
	if loaded.Len() != 1 {
		t.Fatalf("want only the intact first line, got %d entries", loaded.Len())
	}
	loaded.Store("c", entry("dc"))
	if err := loaded.Persist(path); err != nil {
		t.Fatal(err)
	}
	if stat(t, path+journalSuffix).ok {
		t.Fatal("Persist appended behind a torn line")
	}
	if got := mustLoad(t, path).Len(); got != 2 {
		t.Fatalf("after compaction %d entries, want 2", got)
	}
}

// TestSaveRemovesJournal: Save writes the whole snapshot and removes
// the journal; a journal left by a crash between the two replays
// idempotently.
func TestSaveRemovesJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "manifest.json")
	m := mustLoad(t, path)
	m.Store("a", entry("da"))
	if err := m.Persist(path); err != nil {
		t.Fatal(err)
	}
	redundant, _ := os.ReadFile(path + journalSuffix)
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	if stat(t, path+journalSuffix).ok {
		t.Fatal("Save left the journal")
	}
	var f manifestFile
	b, _ := os.ReadFile(path)
	if err := json.Unmarshal(b, &f); err != nil || f.Version != ManifestVersion || len(f.Entries) != 1 {
		t.Fatalf("snapshot %s: %v", b, err)
	}
	os.WriteFile(path+journalSuffix, redundant, 0o644)
	if got := mustLoad(t, path); got.Len() != 1 {
		t.Fatalf("redundant journal replay gave %d entries, want 1", got.Len())
	}
}

// TestVersionMismatchIgnoresJournal: a snapshot of another layout
// starts the cache cold, its journal is not replayed, and the first
// Persist rewrites both.
func TestVersionMismatchIgnoresJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "manifest.json")
	os.WriteFile(path, []byte(`{"version":99,"entries":{}}`), 0o644)
	os.WriteFile(path+journalSuffix, []byte(`{"key":"a","entry":{"digest":"da","rows":null,"wallMillis":0}}`+"\n"), 0o644)
	m := mustLoad(t, path)
	if m.Len() != 0 {
		t.Fatalf("version mismatch loaded %d entries", m.Len())
	}
	m.Store("b", entry("db"))
	if err := m.Persist(path); err != nil {
		t.Fatal(err)
	}
	b, _ := os.ReadFile(path)
	if !strings.Contains(string(b), `"version": 1`) || stat(t, path+journalSuffix).ok {
		t.Fatalf("first Persist did not rewrite the snapshot: %s", b)
	}
}

// FuzzLoadMemory feeds arbitrary snapshot and journal bytes to
// LoadMemory. It must never panic, never load a nil entry, and what it
// loads must survive a Save and reload unchanged.
func FuzzLoadMemory(f *testing.F) {
	valid := `{"version":1,"entries":{"fig2/a":{"digest":"d1","rows":["x\t1"],"summary":["s"],"wallMillis":2.5}}}`
	line := `{"key":"fig2/b","entry":{"digest":"d2","rows":["y\t2"],"wallMillis":1}}` + "\n"
	f.Add([]byte(valid), []byte(""))
	f.Add([]byte(valid), []byte(line+line[:20]))
	f.Add([]byte(`{"version":1,"entries":{"k":null}}`), []byte(`{"key":"j","entry":null}`+"\n"))
	f.Add([]byte(""), []byte(line))
	f.Fuzz(func(t *testing.T, snap, journal []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "manifest.json")
		if len(snap) > 0 {
			os.WriteFile(path, snap, 0o644)
		}
		if len(journal) > 0 {
			os.WriteFile(path+journalSuffix, journal, 0o644)
		}
		m, err := LoadMemory(path)
		if err != nil {
			return
		}
		for k, e := range m.entries {
			if e == nil {
				t.Fatalf("nil entry loaded for %q", k)
			}
		}
		want, err := json.Marshal(m.entries)
		if err != nil {
			t.Fatal(err)
		}
		out := filepath.Join(dir, "saved.json")
		if err := m.Save(out); err != nil {
			t.Fatal(err)
		}
		back, err := LoadMemory(out)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := json.Marshal(back.entries)
		if !bytes.Equal(got, want) {
			t.Fatalf("Save/LoadMemory round trip changed the entries:\n%s\n%s", want, got)
		}
	})
}

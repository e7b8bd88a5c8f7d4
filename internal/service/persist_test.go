package service_test

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"coherentleak/internal/harness"
	"coherentleak/internal/service"
)

// Fault-path tests for the daemon's manifest persistence: a job
// reported done has every cell it stored on disk without a Shutdown,
// a torn journal tail loses only the torn line, and a fully cached job
// writes nothing.

// runSeed submits one artifact of blockingRegistry at seed and waits
// for the job to be done.
func runSeed(t *testing.T, ts *httptest.Server, art string, seed uint64) service.View {
	t.Helper()
	status, v, _ := postJob(t, ts, fmt.Sprintf(`{"artifacts":[%q],"seed":%d}`, art, seed))
	if status != http.StatusAccepted {
		t.Fatalf("submit status = %d", status)
	}
	return waitState(t, ts, v.ID, service.StateDone)
}

// persistedService starts a service whose manifest is loaded from and
// persisted to path, as cmd/cohsimd runs it.
func persistedService(t *testing.T, path string, opts service.Options) (*service.Service, *httptest.Server) {
	t.Helper()
	m, err := harness.LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	opts.Manifest, opts.ManifestPath = m, path
	return newTestServer(t, opts)
}

// rerunCells resubmits seeds' jobs to a fresh service over the manifest
// loaded from path and returns how many of their cells were cached.
func rerunCells(t *testing.T, path string, reg *harness.Registry, art string, seeds ...uint64) (cached, total int) {
	t.Helper()
	m, err := harness.LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, service.Options{Registry: reg, Manifest: m, DisableDispatch: true})
	for _, seed := range seeds {
		v := runSeed(t, ts, art, seed)
		cached += v.Cells.Cached
		total += v.Cells.Total
	}
	return cached, total
}

// TestDoneJobsDurableWithoutShutdown: cold jobs run against a persisted
// manifest, and the service is then dropped without Shutdown (as a
// crash would). Every cell of every done job must load back, through
// journal appends alone while the journal is small.
func TestDoneJobsDurableWithoutShutdown(t *testing.T) {
	reg := blockingRegistry(1, nil)
	path := filepath.Join(t.TempDir(), "manifest.json")
	_, ts := persistedService(t, path, service.Options{Registry: reg})
	seeds := []uint64{1, 2, 3, 4, 5}
	for _, seed := range seeds {
		runSeed(t, ts, "echo", seed)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("per-job persistence rewrote the snapshot (stat: %v)", err)
	}
	if cached, total := rerunCells(t, path, reg, "echo", seeds...); cached != total || total != 15 {
		t.Fatalf("after restart %d of %d cells cached, want all 15", cached, total)
	}
}

// TestTornJournalKeepsIntactPrefix: a crash mid-append leaves the
// journal's last line torn. Loading keeps every whole line and drops
// only the torn one.
func TestTornJournalKeepsIntactPrefix(t *testing.T) {
	reg := blockingRegistry(1, nil)
	path := filepath.Join(t.TempDir(), "manifest.json")
	_, ts := persistedService(t, path, service.Options{Registry: reg})
	runSeed(t, ts, "echo", 1)
	runSeed(t, ts, "echo", 2)

	journal := path + ".journal"
	b, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(journal, b[:len(b)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := harness.LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 5 {
		t.Fatalf("loaded %d entries from a journal of 6 with a torn last line, want 5", m.Len())
	}
	if cached, _ := rerunCells(t, path, reg, "echo", 1); cached != 3 {
		t.Fatalf("first job: %d of 3 cells cached, want 3", cached)
	}
	if cached, _ := rerunCells(t, path, reg, "echo", 2); cached != 2 {
		t.Fatalf("second job: %d of 3 cells cached, want the 2 intact ones", cached)
	}
}

// TestCachedJobWritesNothing: a job served entirely from the cache
// stored nothing, so neither the snapshot nor the journal changes.
func TestCachedJobWritesNothing(t *testing.T) {
	reg := blockingRegistry(1, nil)
	path := filepath.Join(t.TempDir(), "manifest.json")
	svc, ts := persistedService(t, path, service.Options{Registry: reg})
	runSeed(t, ts, "echo", 1)
	if err := svc.Manifest().Save(path); err != nil {
		t.Fatal(err)
	}
	runSeed(t, ts, "echo", 2)

	files := []string{path, path + ".journal"}
	before := make([]os.FileInfo, len(files))
	for i, f := range files {
		fi, err := os.Stat(f)
		if err != nil {
			t.Fatal(err)
		}
		before[i] = fi
	}
	for _, seed := range []uint64{1, 2, 1} {
		if v := runSeed(t, ts, "echo", seed); v.Cells.Cached != v.Cells.Total {
			t.Fatalf("seed %d rerun not fully cached: %+v", seed, v.Cells)
		}
	}
	for i, f := range files {
		fi, err := os.Stat(f)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != before[i].Size() || !fi.ModTime().Equal(before[i].ModTime()) {
			t.Fatalf("cached jobs touched %s: size %d -> %d, mtime %v -> %v",
				filepath.Base(f), before[i].Size(), fi.Size(), before[i].ModTime(), fi.ModTime())
		}
	}
}

// TestConcurrentJobsDurableAtDone: two jobs on two executors finish at
// the same moment, so one job's Persist may take the other's cells.
// Each must still have all its cells on disk the moment it reports done.
// Race-checked under `make test-race`.
func TestConcurrentJobsDurableAtDone(t *testing.T) {
	release := make(chan struct{})
	reg := blockingRegistry(4, release)
	path := filepath.Join(t.TempDir(), "manifest.json")
	_, ts := persistedService(t, path, service.Options{Registry: reg, Executors: 2, DisableDispatch: true})
	seeds := []uint64{1, 2}
	ids := make([]string, len(seeds))
	for i, seed := range seeds {
		_, v, _ := postJob(t, ts, fmt.Sprintf(`{"artifacts":["block"],"seed":%d}`, seed))
		ids[i] = v.ID
	}
	for _, id := range ids {
		waitState(t, ts, id, service.StateRunning)
	}
	close(release)

	// Check each job the moment it is seen done: a restarted service
	// must then already serve every one of its cells from disk.
	checked := make([]bool, len(ids))
	deadline := time.Now().Add(30 * time.Second)
	for remaining := len(ids); remaining > 0; {
		for i, id := range ids {
			if checked[i] {
				continue
			}
			v := getJob(t, ts, id)
			if !v.State.Terminal() {
				continue
			}
			if v.State != service.StateDone {
				t.Fatalf("job %s ended %s (%s)", id, v.State, v.Error)
			}
			if cached, total := rerunCells(t, path, reg, "block", seeds[i]); cached != total {
				t.Fatalf("job %s done with %d of %d cells on disk", id, cached, total)
			}
			checked[i] = true
			remaining--
		}
		if time.Now().After(deadline) {
			t.Fatal("jobs did not finish")
		}
	}
}

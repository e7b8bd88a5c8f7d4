package main

import (
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"coherentleak/internal/cache"
	"coherentleak/internal/coherence"
	"coherentleak/internal/machine"
	"coherentleak/internal/sim"
	"coherentleak/internal/store"
)

// probeReps is how many timed repetitions each probe makes; the median
// is reported.
const probeReps = 5

// probes times single calls on the public hot paths of the layers and
// reports ns per call. Each metric is named with the workload whose
// wall_s it should move: the noise threads of noise_full live on the
// load/store miss paths and cache fills, the channels of channels_full
// on flush+reload and the spy/trojan handoff, and the daemon's cached
// path on the cell store.
func (r *run) probes() {
	const hitAddr, rfoAddr = 0x1000, 0x2000
	const missBase, missLines = 0x100000, 8192 // 2x L2, well inside the LLC
	miss := func(i int) uint64 { return missBase + uint64(i%missLines)*64 }

	r.probe("probe.noise_full.machine.load_hit_ns", 400000, func(n int) time.Duration {
		return timeMachine(n, func(t *sim.Thread, m *machine.Machine) { m.Load(t, 0, hitAddr) },
			func(t *sim.Thread, m *machine.Machine, _ int) { m.Load(t, 0, hitAddr) })
	})
	r.probe("probe.noise_full.machine.load_miss_ns", 60000, func(n int) time.Duration {
		return timeMachine(n, func(t *sim.Thread, m *machine.Machine) {
			for i := 0; i < missLines; i++ {
				m.Load(t, 0, miss(i))
			}
		}, func(t *sim.Thread, m *machine.Machine, i int) { m.Load(t, 0, miss(i)) })
	})
	r.probe("probe.noise_full.machine.store_rfo_ns", 40000, func(n int) time.Duration {
		return timeMachine(n, func(t *sim.Thread, m *machine.Machine) { m.Load(t, 0, rfoAddr) },
			func(t *sim.Thread, m *machine.Machine, _ int) {
				m.Load(t, 0, rfoAddr)
				m.Store(t, 1, rfoAddr)
			})
	})
	r.probe("probe.channels_full.machine.flush_reload_ns", 40000, func(n int) time.Duration {
		return timeMachine(n, func(t *sim.Thread, m *machine.Machine) { m.Load(t, 0, hitAddr) },
			func(t *sim.Thread, m *machine.Machine, _ int) {
				m.Flush(t, 0, hitAddr)
				m.Load(t, 0, hitAddr)
			})
	})
	r.probe("probe.channels_full.sim.handoff_ns", 100000, timeHandoff)

	llc := machine.DefaultConfig().LLC
	for _, info := range cache.Policies() {
		p := info.Policy
		r.probe("probe.noise_full.cache.insert_"+strings.ToLower(info.Name)+"_ns", 300000, func(n int) time.Duration {
			return timeInsert(llc, p, n)
		})
	}

	dir := r.dir("probe-store")
	entry := &store.Entry{Digest: "d", WallMillis: 1}
	for i := 0; i < 120; i++ {
		entry.Rows = append(entry.Rows, fmt.Sprintf("%d\t0.5\t1\t1\t183\t1", i))
	}
	disk, err := store.NewDisk(filepath.Join(dir, "disk"), 0)
	if err != nil {
		r.opFailed("probe store: %v", err)
		return
	}
	r.probe("probe.daemon_mixed.store.disk_store_ns", 40, func(n int) time.Duration {
		t := time.Now()
		for i := 0; i < n; i++ {
			disk.Store(fmt.Sprintf("k%d", i), entry)
		}
		return time.Since(t)
	})
	r.probe("probe.daemon_mixed.store.disk_lookup_ns", 400, func(n int) time.Duration {
		t := time.Now()
		for i := 0; i < n; i++ {
			if _, ok := disk.Lookup(fmt.Sprintf("k%d", i%40), "d"); !ok {
				r.opFailed("probe store: disk lookup missed")
				break
			}
		}
		return time.Since(t)
	})
	// The daemon's default store is the in-memory manifest, saved whole
	// after every job; 40 entries is what a run of cold jobs accumulates
	// in a few seconds.
	mem := store.NewMemory()
	for i := 0; i < 40; i++ {
		mem.Store(fmt.Sprintf("k%d", i), entry)
	}
	path := filepath.Join(dir, "manifest.json")
	r.probe("probe.daemon_mixed.store.memory_save_ns", 20, func(n int) time.Duration {
		t := time.Now()
		for i := 0; i < n; i++ {
			if err := mem.Save(path); err != nil {
				r.opFailed("probe store: %v", err)
				break
			}
		}
		return time.Since(t)
	})
}

// probe runs body probeReps times over n calls and records the median
// ns per call.
func (r *run) probe(name string, n int, body func(n int) time.Duration) {
	var per []float64
	body(n / 10) // warm-up
	for i := 0; i < probeReps; i++ {
		per = append(per, float64(body(n).Nanoseconds())/float64(n))
	}
	r.set(name, median(per), probeReps)
}

// timeMachine times n calls of body on a fresh default machine, inside
// one simulated thread, after warm.
func timeMachine(n int, warm func(*sim.Thread, *machine.Machine), body func(*sim.Thread, *machine.Machine, int)) time.Duration {
	w := sim.NewWorld(sim.Config{Seed: 1})
	m := machine.New(w, machine.DefaultConfig())
	var d time.Duration
	done := false
	w.Spawn("probe", func(t *sim.Thread) {
		warm(t, m)
		start := time.Now()
		for i := 0; i < n; i++ {
			body(t, m, i)
		}
		d = time.Since(start)
		done = true
	})
	if err := w.RunUntil(func() bool { return done }); err != nil {
		panic(err)
	}
	w.Drain()
	return d
}

// timeHandoff times Advance on two threads in lockstep: every call parks
// one thread and resumes the other, as the spy and trojan do.
func timeHandoff(n int) time.Duration {
	w := sim.NewWorld(sim.Config{Seed: 1})
	body := func(t *sim.Thread) {
		for i := 0; i < n/2; i++ {
			t.Advance(1)
		}
	}
	w.Spawn("a", body)
	w.Spawn("b", body)
	start := time.Now()
	if err := w.Run(); err != nil {
		panic(err)
	}
	return time.Since(start)
}

// timeInsert times n fills into an LLC-shaped cache under one policy,
// over twice its capacity so that every fill past warm-up evicts.
func timeInsert(geo cache.Geometry, p cache.Policy, n int) time.Duration {
	c := cache.MustNew(geo, p)
	lines := 2 * geo.SizeBytes / cache.LineSize
	for i := 0; i < lines; i++ {
		c.Insert(uint64(i)*cache.LineSize, coherence.Shared)
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		c.Insert(uint64(i%lines)*cache.LineSize, coherence.Shared)
	}
	return time.Since(start)
}

package service

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"coherentleak/internal/harness"
)

// BenchmarkJobRoundTrip times one job from Submit to done through an
// in-process service whose manifest is persisted (ManifestPath set),
// over a store that already holds 500 entries. The job has four
// instant cells, so persistence and service overhead dominate:
//   - cached: every cell is a store hit, so the job stores nothing;
//   - cold: a new seed per job, so every cell executes and is stored.
//
// The cached case must not grow with the store's size.
func BenchmarkJobRoundTrip(b *testing.B) {
	for _, mode := range []string{"cached", "cold"} {
		b.Run(mode, func(b *testing.B) {
			path := filepath.Join(b.TempDir(), "manifest.json")
			m := harness.NewManifest()
			row := strings.Repeat("0.5\t", 8) + "1"
			for i := 0; i < 500; i++ {
				m.Store(fmt.Sprintf("fill/%d", i), &harness.ManifestEntry{
					Digest: fmt.Sprintf("%064x", i), Rows: []string{row, row, row, row}, WallMillis: 3,
				})
			}
			if err := m.Save(path); err != nil {
				b.Fatal(err)
			}
			s, err := New(Options{
				Registry: roundTripRegistry(), Manifest: m, ManifestPath: path, DisableDispatch: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Shutdown(context.Background())

			seed := uint64(1)
			roundTrip := func() {
				j, err := s.Submit(&SubmitRequest{Artifacts: []string{"rt"}, Seed: &seed})
				if err != nil {
					b.Fatal(err)
				}
				if st := waitJob(s, j); st != StateDone {
					b.Fatalf("job %s ended %s", j.ID, st)
				}
			}
			roundTrip() // the cached case's entries now exist
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if mode == "cold" {
					seed++
				}
				roundTrip()
			}
		})
	}
}

// roundTripRegistry registers "rt": four instant cells whose rows
// depend on the seed.
func roundTripRegistry() *harness.Registry {
	reg := harness.NewRegistry()
	reg.MustRegister(&harness.Artifact{
		Name: "rt", Description: "instant cells", File: "rt.tsv", Header: "cell\tseed",
		Cells: func(p harness.Plan) ([]harness.Cell, error) {
			cells := make([]harness.Cell, 4)
			for i := range cells {
				cells[i] = harness.Cell{Name: fmt.Sprint("c", i), Run: func() (harness.CellOutput, error) {
					return harness.CellOutput{Rows: []string{fmt.Sprintf("c%d\t%d", i, p.Seed)}}, nil
				}}
			}
			return cells, nil
		},
	})
	return reg
}

// waitJob blocks until j is terminal and returns its final state.
func waitJob(s *Service, j *Job) State {
	s.mu.Lock()
	_, ch, _ := j.subscribe()
	s.mu.Unlock()
	if ch != nil {
		for range ch {
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.state
}

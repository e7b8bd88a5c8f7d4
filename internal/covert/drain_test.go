package covert

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"coherentleak/internal/kernel"
	"coherentleak/internal/noise"
)

// breakTrojan unmaps the trojan's shared page, so the first trojan
// access segfaults and the trojan body panics mid-run.
func breakTrojan(s *Session) {
	if err := s.TrojanProc.Munmap(s.TrojanVA&^(kernel.PageSize-1), 1); err != nil {
		panic(err)
	}
}

// A thread failure re-panics out of the run. Every engine must still
// drain its world on the way out, so the parked spy and trojan threads
// do not leak their goroutines (and machines) per failed cell.
func TestFailedRunDrainsWorld(t *testing.T) {
	bits := PatternBitsForTest(7, 8)
	runs := map[string]func(){
		"channel": func() {
			ch := NewChannel(Scenarios[0])
			ch.PreRun = func(s *Session) {
				if _, err := noise.Attach(s.Kern, noise.DefaultConfig(2)); err != nil {
					panic(err)
				}
				breakTrojan(s)
			}
			ch.Run(bits)
		},
		"multibit": func() {
			ch := NewMultiBitChannel()
			ch.PreRun = breakTrojan
			ch.Run(bits)
		},
		"parallel": func() {
			ch := NewParallelChannel(Scenarios[0], 2)
			ch.PreRun = breakTrojan
			ch.Run(bits)
		},
	}
	for name, run := range runs {
		t.Run(name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			func() {
				defer func() {
					r := recover()
					if r == nil || !strings.Contains(fmt.Sprint(r), "segfault") {
						t.Fatalf("run did not fail with the trojan's segfault: %v", r)
					}
				}()
				run()
			}()
			// Drained goroutines exit just after handing control back.
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > base {
				t.Fatalf("%d goroutines after the failed run, %d before: the world was not drained", n, base)
			}
		})
	}
}

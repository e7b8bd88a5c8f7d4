package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

// The bounds are checked with Python's statistics.quantiles(n=4); these
// expectations are its output.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3.5, 1.25, 9, 4}, 1.8125, 7.75},
		{[]float64{2, 7}, 0.75, 8.25},
		{[]float64{19.4, 21.27, 22.94, 19.95, 20.73, 22.94, 20.70, 20.75, 16.99, 19.76}, 19.67, 21.6875},
	} {
		q1, q3 := quartiles(c.in)
		if math.Abs(q1-c.q1) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"coherentleak/internal/coherence.(*Directory).find": "coherence",
		"coherentleak/internal/sim.(*World).transfer.func1": "sim",
		"coherentleak/internal/kernel/difftest.Run":         "kernel",
		"coherentleak/internal/service.serveSSE[...]":       "service",
		"coherentleak/internal/sweep.Expand":                "other",
		"main.main":                                         "other",
		"runtime.futex":                                     "",
		"encoding/json.Marshal":                             "",
	} {
		got, ok := layerOf(fn)
		if got != want || ok != (want != "") {
			t.Errorf("layerOf(%q) = %q, %v; want %q", fn, got, ok, want)
		}
	}
}

var sink uint64

//go:noinline
func burn(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			sink = sink*6364136223846793005 + 1
		}
	}
}

// A profile taken by the runtime decodes, and time spent in this
// package's frames is charged to "other".
func TestAttributeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	burn(300 * time.Millisecond)
	pprof.StopCPUProfile()
	byLayer, n, err := attributeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 || byLayer["other"] <= 0 {
		t.Fatalf("got %d samples, %v by layer; want time on other", n, byLayer)
	}
}

func TestDerivedSeedSkipsDefault(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		s := derivedSeed(42, i, 7)
		if s == 7 || seen[s] {
			t.Fatalf("derivedSeed(42, %d) = %d repeats or equals the skipped seed", i, s)
		}
		seen[s] = true
	}
}

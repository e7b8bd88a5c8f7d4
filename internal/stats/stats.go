// Package stats provides the small statistical toolkit the experiments
// use: summaries, percentiles, empirical CDFs, histograms, and the
// latency-band calibration used by the spy to classify timed loads.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary describes a sample of latency (or any scalar) values.
type Summary struct {
	N      int
	Mean   float64
	Std    float64
	Min    float64
	Max    float64
	Median float64
	P5     float64
	P95    float64
}

// Summarize computes a Summary of xs. It returns a zero Summary for an
// empty sample.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	var sum, sq float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(s.N)
	for _, x := range xs {
		d := x - s.Mean
		sq += d * d
	}
	if s.N > 1 {
		s.Std = math.Sqrt(sq / float64(s.N-1))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Median = Percentile(sorted, 50)
	s.P5 = Percentile(sorted, 5)
	s.P95 = Percentile(sorted, 95)
	return s
}

// Percentile returns the p-th percentile (0..100) of sorted (ascending)
// data, with linear interpolation.
func Percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return sorted[0]
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[n-1]
	}
	pos := p / 100 * float64(n-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	if sorted[lo] == sorted[lo+1] {
		// Interpolating between equal neighbours can round one ulp
		// above them, past the next percentile.
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	X float64 // value
	P float64 // cumulative probability in (0, 1]
}

// CDF returns the empirical cumulative distribution of xs, one point per
// distinct value — the form of the paper's Figure 2.
func CDF(xs []float64) []CDFPoint {
	if len(xs) == 0 {
		return nil
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	var out []CDFPoint
	n := float64(len(sorted))
	for i := 0; i < len(sorted); i++ {
		// Emit at the last occurrence of each distinct value.
		if i+1 < len(sorted) && sorted[i+1] == sorted[i] {
			continue
		}
		out = append(out, CDFPoint{X: sorted[i], P: float64(i+1) / n})
	}
	return out
}

// Histogram bins xs into equal-width buckets over [lo, hi).
type Histogram struct {
	Lo, Hi float64
	Counts []int
	// Under and Over count out-of-range samples.
	Under, Over int
}

// NewHistogram builds a histogram with bins buckets.
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins <= 0 || hi <= lo {
		panic(fmt.Sprintf("stats: bad histogram range [%v,%v)/%d", lo, hi, bins))
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}
}

// Add records one sample.
func (h *Histogram) Add(x float64) {
	switch {
	case x < h.Lo:
		h.Under++
	case x >= h.Hi:
		h.Over++
	default:
		i := int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Counts)))
		if i >= len(h.Counts) {
			i = len(h.Counts) - 1
		}
		h.Counts[i]++
	}
}

// Total returns the number of in-range samples.
func (h *Histogram) Total() int {
	n := 0
	for _, c := range h.Counts {
		n += c
	}
	return n
}

// Mode returns the center of the fullest bucket.
func (h *Histogram) Mode() float64 {
	best, bi := -1, 0
	for i, c := range h.Counts {
		if c > best {
			best, bi = c, i
		}
	}
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + (float64(bi)+0.5)*w
}

// Band is a calibrated latency interval [Lo, Hi] with its center. The spy
// classifies timed loads by band membership (the Tc / Tb values of
// Algorithms 1 and 2).
type Band struct {
	Name   string
	Lo, Hi float64
	Center float64
}

// Contains reports whether x falls inside the band.
func (b Band) Contains(x float64) bool { return x >= b.Lo && x <= b.Hi }

// Overlaps reports whether two bands intersect.
func (b Band) Overlaps(o Band) bool { return b.Lo <= o.Hi && o.Lo <= b.Hi }

func (b Band) String() string {
	return fmt.Sprintf("%s[%.0f..%.0f]", b.Name, b.Lo, b.Hi)
}

// CalibrateBand builds a Band from a calibration sample, widening the
// observed range by margin on each side.
func CalibrateBand(name string, xs []float64, margin float64) Band {
	s := Summarize(xs)
	return Band{Name: name, Lo: s.Min - margin, Hi: s.Max + margin, Center: s.Mean}
}

// Separation returns the gap between two non-overlapping bands (negative
// if they overlap) — the channel-quality metric behind the Figure 8
// robustness ordering.
func Separation(a, b Band) float64 {
	if a.Lo > b.Lo {
		a, b = b, a
	}
	return b.Lo - a.Hi
}

// Accuracy returns alignment-aware symbol accuracy: 1 minus the
// Levenshtein distance between want and got over the longer length. The
// paper's raw-bit error model has three components — lost bits, extra
// (duplicated) bits, and flipped bits (§VIII-B) — which map exactly onto
// edit-distance deletions, insertions and substitutions, so a single lost
// bit costs one error rather than desynchronizing every later position.
func Accuracy(want, got []byte) float64 {
	n := len(want)
	if len(got) > n {
		n = len(got)
	}
	if n == 0 {
		return 1
	}
	return 1 - float64(EditDistance(want, got))/float64(n)
}

// EditDistance returns the Levenshtein distance between two symbol
// sequences (unit costs).
func EditDistance(a, b []byte) int {
	if len(a) == 0 {
		return len(b)
	}
	if len(b) == 0 {
		return len(a)
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			m := prev[j-1] + cost        // substitute
			if d := prev[j] + 1; d < m { // delete
				m = d
			}
			if d := cur[j-1] + 1; d < m { // insert
				m = d
			}
			cur[j] = m
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// PositionalAccuracy returns the fraction of positions where got matches
// want with no alignment; surplus or missing symbols count as errors
// against the longer length.
func PositionalAccuracy(want, got []byte) float64 {
	n := len(want)
	if len(got) > n {
		n = len(got)
	}
	if n == 0 {
		return 1
	}
	match := 0
	for i := 0; i < len(want) && i < len(got); i++ {
		if want[i] == got[i] {
			match++
		}
	}
	return float64(match) / float64(n)
}

// Kbps converts a bit count and a duration in seconds to kilobits/second
// (decimal kilo, as the paper reports).
func Kbps(bits int, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return float64(bits) / seconds / 1e3
}

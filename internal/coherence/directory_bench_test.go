package coherence

import "testing"

// benchLive is the record count the benches hold: about the most one
// socket's directory holds in a full-size fig10 run.
const benchLive = 86 << 10

// benchLines returns n distinct, line-aligned, pseudo-random addresses
// spread over a 64 GiB physical space, as the noise workload's pages are.
func benchLines(n int, seed uint64) []uint64 {
	seen := make(map[uint64]bool, n)
	out := make([]uint64, 0, n)
	x := seed | 1
	for len(out) < n {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		line := x & (1<<36 - 1) &^ 63
		if !seen[line] {
			seen[line] = true
			out = append(out, line)
		}
	}
	return out
}

// benchDirectory returns a 6-core directory holding a record for every
// line in live, each with a clean LLC copy and one sharer: core i%6 for
// live[i].
func benchDirectory(live []uint64) *Directory {
	d := NewDirectory(6)
	for i, line := range live {
		d.AddSharer(line, i%6)
		d.MarkClean(line)
	}
	return d
}

// BenchmarkDirectoryHit times the census of a line that has a record.
func BenchmarkDirectoryHit(b *testing.B) {
	live := benchLines(benchLive, 1)
	d := benchDirectory(live)
	b.ReportAllocs()
	b.ResetTimer()
	sink := uint64(0)
	for i := 0; i < b.N; i++ {
		sink += d.SharerMask(live[i%len(live)])
	}
	if sink == 0 {
		b.Fatal("no hits")
	}
}

// BenchmarkDirectoryMiss times the census of a line with no record,
// the first question of every LLC miss.
func BenchmarkDirectoryMiss(b *testing.B) {
	all := benchLines(2*benchLive, 2)
	live, absent := all[:benchLive], all[benchLive:]
	d := benchDirectory(live)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d.CensusOf(absent[i%len(absent)]) != CensusNone {
			b.Fatal("absent line has sharers")
		}
	}
}

// BenchmarkDirectoryChurn streams records through a full directory as
// fig10's noise threads do: each op fills a new line (census miss, add
// sharer, mark clean) and retires the oldest live one (drop sharer,
// invalidate the LLC copy), so occupancy stays at benchLive.
func BenchmarkDirectoryChurn(b *testing.B) {
	// ring[k]'s sharer is core k%6; the ring's length is a multiple of
	// 6, so that holds across wrap-around too.
	ring := benchLines(6*benchLive, 3)
	d := benchDirectory(ring[:benchLive])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := (i + benchLive) % len(ring)
		out := i % len(ring)
		if d.CensusOf(ring[in]) != CensusNone {
			b.Fatal("streamed line already live")
		}
		d.AddSharer(ring[in], in%6)
		d.MarkClean(ring[in])
		d.RemoveSharer(ring[out], out%6)
		d.InvalidateLLC(ring[out])
	}
	if d.Lines() != benchLive {
		b.Fatalf("occupancy drifted to %d", d.Lines())
	}
}

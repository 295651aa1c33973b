package pit

import (
	"testing"

	"prism/internal/mem"
)

// benchPIT builds a PIT with n S-COMA client entries on frames 0..n-1
// mapping pages {Seg:1, Page:i}.
func benchPIT(n int) *PIT {
	p := New(0, mem.DefaultGeometry, DefaultConfig)
	for i := 0; i < n; i++ {
		p.Insert(mem.FrameID(i), Entry{
			Mode:  ModeSCOMA,
			GPage: mem.GPage{Seg: 1, Page: uint32(i)},
			Caps:  mem.AllNodes(),
		})
	}
	return p
}

// BenchmarkReverseLookupGuess is the §3.2 guessed-frame fast path: the
// message carries the right frame number, so no hash probe happens.
// The forward lookup and the hash fallback are internal/benchsuite's
// PITLookup and PITReverseHash rows.
func BenchmarkReverseLookupGuess(b *testing.B) {
	p := benchPIT(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := mem.FrameID(i & 255)
		g := mem.GPage{Seg: 1, Page: uint32(i & 255)}
		if _, ok, _ := p.ReverseLookup(g, f, true); !ok {
			b.Fatal("guess path failed")
		}
	}
}

// BenchmarkInsertRemove cycles one frame through Insert and Remove:
// the page-in/page-out churn path. Steady state must reuse the pooled
// tag and dirty slices rather than allocate. One cycle before the timer
// allocates the frame chunk that frame 1000 lives in.
func BenchmarkInsertRemove(b *testing.B) {
	p := benchPIT(256)
	ent := Entry{
		Mode:  ModeSCOMA,
		GPage: mem.GPage{Seg: 2, Page: 7},
		Caps:  mem.AllNodes(),
	}
	p.Insert(1000, ent)
	p.Remove(1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Insert(1000, ent)
		p.Remove(1000)
	}
}

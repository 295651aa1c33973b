package kernel

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"prism/internal/coherence"
	"prism/internal/mem"
	"prism/internal/pit"
	"prism/internal/sim"
)

// mkPagingKernel is mkKernel with a PIT to consult: victim choice reads
// only the controller's PIT, so a controller holding nothing else will
// do.
func mkPagingKernel(t testing.TB, frames int) *Kernel {
	k := mkKernel(t, frames)
	k.ctrl = &coherence.Controller{PIT: pit.New(0, mem.DefaultGeometry, pit.DefaultConfig)}
	return k
}

// oracleCandidates is victim selection as it stood before the client
// list: every evictable client binding found by walking the frames map,
// sorted by frame number.
func oracleCandidates(k *Kernel) []mem.FrameID {
	var out []mem.FrameID
	for f, fb := range k.frames {
		if !fb.client || fb.busy {
			continue
		}
		ent := k.ctrl.PIT.Entry(f)
		if ent == nil || ent.Mode != pit.ModeSCOMA || ent.InTransit() {
			continue
		}
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// oracleLRU scans the sorted candidates with a strict comparison, so
// ties go to the lowest frame.
func oracleLRU(k *Kernel) (mem.FrameID, bool) {
	cands := oracleCandidates(k)
	if len(cands) == 0 {
		return 0, false
	}
	best := cands[0]
	bestT := k.ctrl.PIT.Entry(best).LastAccess
	for _, f := range cands[1:] {
		if t := k.ctrl.PIT.Entry(f).LastAccess; t < bestT {
			best, bestT = f, t
		}
	}
	return best, true
}

func oracleMostInvalid(k *Kernel) (mem.FrameID, bool) {
	cands := oracleCandidates(k)
	if len(cands) == 0 {
		return 0, false
	}
	best := cands[0]
	bestN := k.ctrl.PIT.Entry(best).InvalidLines()
	for _, f := range cands[1:] {
		if n := k.ctrl.PIT.Entry(f).InvalidLines(); n > bestN {
			best, bestN = f, n
		}
	}
	return best, true
}

// TestVictimsMatchOracle drives seeded sequences of every change the
// client list must follow — binds and unbinds, client flips, busy
// marks, PIT mode and Transit changes, heavily tied LastAccess and
// InvalidLines values, export/import round trips — and after each step
// requires both one-pass victim queries to equal the sort-and-scan
// oracle, and the list to pass CheckClients.
func TestVictimsMatchOracle(t *testing.T) {
	const frames = 24
	lines := mem.DefaultGeometry.LinesPerPage()
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := mkPagingKernel(t, frames)
		p := k.ctrl.PIT
		// insert gives f a fresh PIT entry, mostly S-COMA (all lines
		// Invalid, so InvalidLines ties until tags change).
		insert := func(f mem.FrameID) {
			p.Remove(f)
			mode := pit.ModeSCOMA
			if rng.Intn(5) == 0 {
				mode = pit.ModeLANUMA
			}
			ent := p.Insert(f, pit.Entry{Mode: mode, GPage: mem.GPage{Seg: 1, Page: uint32(f)}})
			ent.LastAccess = sim.Time(rng.Intn(4))
		}
		// bound picks a bound frame, or reports none.
		bound := func() (mem.FrameID, *frameBinding, bool) {
			f := mem.FrameID(rng.Intn(frames))
			fb := k.frames[f]
			return f, fb, fb != nil
		}
		for step := 0; step < 3000; step++ {
			switch op := rng.Intn(20); {
			case op < 5: // bind a free frame, mostly as a client
				f := mem.FrameID(rng.Intn(frames))
				if k.frames[f] != nil {
					break
				}
				k.bindFrame(f, mem.VPage{Seg: 2, Page: uint32(f)}, mem.GPage{Seg: 1, Page: uint32(f)}, rng.Intn(4) != 0)
				insert(f)
			case op < 8: // unbind, usually with its PIT entry
				if f, _, ok := bound(); ok {
					k.unbindFrame(f)
					if rng.Intn(4) != 0 {
						p.Remove(f)
					}
				}
			case op < 10: // client flip (migration's demote and promote)
				if _, fb, ok := bound(); ok {
					k.setClient(fb, !fb.client)
				}
			case op < 12: // busy mark (a page-out under way)
				if _, fb, ok := bound(); ok {
					fb.busy = !fb.busy
				}
			case op < 13: // PIT mode change, or the entry gone
				if f, _, ok := bound(); ok {
					if rng.Intn(3) == 0 {
						p.Remove(f)
					} else {
						insert(f)
					}
				}
			case op < 17: // a tag change: Transit, Invalid count
				f, _, ok := bound()
				if ent := p.Entry(f); !ok || ent == nil || ent.Mode != pit.ModeSCOMA {
					break
				}
				p.SetTag(f, rng.Intn(lines), pit.Tag(rng.Intn(4)))
			case op < 19: // a local access, from few distinct times
				if ent := p.Entry(mem.FrameID(rng.Intn(frames))); ent != nil {
					ent.LastAccess = sim.Time(rng.Intn(4))
				}
			default: // export/import round trip at a quiescent point
				for _, fb := range k.frames {
					fb.busy = false
				}
				before := k.ExportState()
				k.ImportState(before)
				if after := k.ExportState(); !reflect.DeepEqual(before, after) {
					t.Fatalf("seed %d step %d: round trip changed the state:\n%+v\n%+v", seed, step, before, after)
				}
			}
			if err := k.CheckClients(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			n := 0
			for _, fb := range k.frames {
				if fb.client {
					n++
				}
			}
			if got := k.ClientSCOMAFrames(); got != n {
				t.Fatalf("seed %d step %d: ClientSCOMAFrames %d, %d client bindings", seed, step, got, n)
			}
			gf, gok := k.LRUVictim()
			if wf, wok := oracleLRU(k); gf != wf || gok != wok {
				t.Fatalf("seed %d step %d: LRUVictim (%d, %v), oracle (%d, %v)", seed, step, gf, gok, wf, wok)
			}
			gf, gok = k.MostInvalidVictim()
			if wf, wok := oracleMostInvalid(k); gf != wf || gok != wok {
				t.Fatalf("seed %d step %d: MostInvalidVictim (%d, %v), oracle (%d, %v)", seed, step, gf, gok, wf, wok)
			}
		}
	}
}

// BenchmarkLRUVictim is one Dyn-LRU victim choice with the page cache
// at a 300-frame cap: a pass over the client list, allocation-free.
func BenchmarkLRUVictim(b *testing.B) {
	const capacity = 300
	k := mkPagingKernel(b, capacity)
	rng := rand.New(rand.NewSource(1))
	for i, t := range rng.Perm(capacity) {
		f := mem.FrameID(i)
		k.bindFrame(f, mem.VPage{Seg: 2, Page: uint32(i)}, mem.GPage{Seg: 1, Page: uint32(i)}, true)
		k.ctrl.PIT.Insert(f, pit.Entry{Mode: pit.ModeSCOMA, GPage: mem.GPage{Seg: 1, Page: uint32(i)}}).LastAccess = sim.Time(t)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := k.LRUVictim(); !ok {
			b.Fatal("no victim")
		}
	}
}

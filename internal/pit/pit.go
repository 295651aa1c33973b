// Package pit implements PRISM's Page Information Table: the per-node
// structure the coherence controller uses to translate between local
// physical frames and global pages, to dispatch protocol handlers by
// page-frame mode, to hold the fine-grain (2-bit) line tags of S-COMA
// frames, and to enforce the inter-node memory firewall.
//
// Forward translation (frame → global page) is a direct table lookup.
// Reverse translation (global page → frame) uses the guessed frame
// number carried in coherence messages when it matches, and otherwise
// falls back to a hash table — exactly the structure of §3.2.
//
// The host-side layout mirrors the modeled hardware: the forward
// table is a dense array of entries indexed by frame number (chunked
// so entry pointers stay stable forever — handlers hold *Entry across
// engine events), and the reverse table is a linear-probe hash table
// over packed global page numbers. Per-page tag/dirty/touched slices
// recycle through free lists, so a page-out followed by a page-in
// allocates nothing.
package pit

import (
	"fmt"

	"prism/internal/mem"
	"prism/internal/sim"
)

// Mode is a page-frame mode (§3.2 "Page Frame Modes").
type Mode uint8

// Frame modes.
const (
	// ModeInvalid marks an unallocated PIT entry.
	ModeInvalid Mode = iota
	// ModeLocal frames are node-private memory; the controller takes
	// no action and the local bus protocol prevails.
	ModeLocal
	// ModeSCOMA frames are page-cache frames for global pages, with
	// fine-grain tags per line.
	ModeSCOMA
	// ModeLANUMA frames are imaginary: no memory behind them; the
	// controller acts as the memory and forwards misses to the home.
	ModeLANUMA
	// ModeCommand frames are the memory-mapped OS↔controller command
	// interface.
	ModeCommand
	// ModeSync frames invoke a locking protocol (the paper mentions
	// this as an example of further modes; used by the sync extension).
	ModeSync
)

func (m Mode) String() string {
	switch m {
	case ModeInvalid:
		return "invalid"
	case ModeLocal:
		return "local"
	case ModeSCOMA:
		return "s-coma"
	case ModeLANUMA:
		return "la-numa"
	case ModeCommand:
		return "command"
	case ModeSync:
		return "sync"
	}
	return fmt.Sprintf("Mode(%d)", uint8(m))
}

// Global reports whether frames in this mode back globally shared pages.
func (m Mode) Global() bool { return m == ModeSCOMA || m == ModeLANUMA || m == ModeSync }

// Tag is a fine-grain 2-bit line state for S-COMA frames (§3.2).
type Tag uint8

// Fine-grain tag states.
const (
	// TagInvalid: the controller stalls accesses and fetches a copy.
	TagInvalid Tag = iota
	// TagShared: reads proceed locally; writes stall for exclusivity.
	TagShared
	// TagExclusive: all local accesses proceed under the bus protocol.
	TagExclusive
	// TagTransit: a protocol transaction is in flight; bus retries.
	TagTransit
)

func (t Tag) String() string {
	return [...]string{"I", "S", "E", "T"}[t]
}

// Entry is one PIT entry, indexed by frame number (Figure 5), extended
// with the dynamic-home field of §3.5 and the capability list of §3.2.
type Entry struct {
	Mode  Mode
	GPage mem.GPage

	// StaticHome tracks the page's fixed static home; DynHome is the
	// node currently holding the directory (they differ only after a
	// lazy migration). For non-global frames both are the local node.
	StaticHome mem.NodeID
	DynHome    mem.NodeID

	// HomeFrame caches the page's frame number at the (dynamic) home,
	// carried on paging and coherence messages to optimize reverse
	// translation at the home.
	HomeFrame      mem.FrameID
	HomeFrameKnown bool

	// Tags are the fine-grain line states (S-COMA frames only; nil for
	// other modes). Dirty marks lines whose local page-cache copy is
	// newer than the home's.
	Tags  []Tag
	Dirty []bool

	// Touched records which lines have ever been accessed, for the
	// Table 3 utilization statistic.
	Touched []bool

	// Caps is the capability set of nodes allowed to reach this frame
	// from the network. The empty set means "only the home and this
	// node", the default the firewall falls back to.
	Caps mem.NodeSet

	// LastAccess is the last bus-transaction time against the frame
	// (drives LRU policies); AccessCount and RemoteTraffic feed the
	// Dyn-Util policy and the migration policy respectively.
	LastAccess    sim.Time
	AccessCount   uint64
	RemoteTraffic uint64

	// invalid counts Tags in TagInvalid, maintained incrementally so
	// the Dyn-Util query is O(frames) not O(frames×lines).
	invalid int
	transit int
}

// Valid reports whether the entry is allocated.
func (e *Entry) Valid() bool { return e.Mode != ModeInvalid }

// InvalidLines returns the number of fine-grain tags in TagInvalid.
func (e *Entry) InvalidLines() int { return e.invalid }

// InTransit reports whether any line of the frame is in TagTransit.
func (e *Entry) InTransit() bool { return e.transit > 0 }

// Utilization returns the fraction of lines ever touched.
func (e *Entry) Utilization() float64 {
	if len(e.Touched) == 0 {
		return 0
	}
	n := 0
	for _, t := range e.Touched {
		if t {
			n++
		}
	}
	return float64(n) / float64(len(e.Touched))
}

// Stats counts PIT activity.
type Stats struct {
	Lookups       uint64 // forward translations
	ReverseGuess  uint64 // reverse translations satisfied by the guess
	ReverseHash   uint64 // reverse translations that needed the hash
	FirewallDrops uint64 // remote accesses rejected by the capability check
}

// Config sets the PIT's modeled access times.
type Config struct {
	// AccessTime is one PIT lookup (2 cycles SRAM; the §4.3 study uses
	// 10 to model DRAM).
	AccessTime sim.Time
	// HashTime is the additional cost of a hash-table reverse lookup
	// when the guessed frame number misses.
	HashTime sim.Time
}

// DefaultConfig is the paper's SRAM PIT.
var DefaultConfig = Config{AccessTime: 2, HashTime: 18}

// Forward-table layout: frame numbers index a directory of fixed-size
// entry chunks. Chunks are allocated on demand and never moved or
// freed, so an *Entry handed out once stays valid for the PIT's
// lifetime (protocol continuations hold entry pointers across engine
// events). Frame numbers split at highBase — the kernel mints
// imaginary (LA-NUMA) frame numbers from 1<<20 upward — so the two
// directories stay dense instead of one spanning the gap.
const (
	chunkShift = 8
	chunkSize  = 1 << chunkShift
	chunkMask  = chunkSize - 1

	// highBase mirrors the kernel's imaginary-frame base. Frames below
	// it land in the low directory, frames at or above it in the high
	// one; the split is an implementation detail invisible to callers.
	highBase mem.FrameID = 1 << 20
)

type chunkDir []*[chunkSize]Entry

// slot returns the entry storage for f, or nil if its chunk was never
// allocated. A non-nil result may still be an invalid (unbound) entry.
func (d chunkDir) slot(f mem.FrameID) *Entry {
	ci := int(f >> chunkShift)
	if ci >= len(d) || d[ci] == nil {
		return nil
	}
	return &d[ci][f&chunkMask]
}

// ensure returns the entry storage for f, allocating its chunk (and
// growing the directory) as needed.
func (d *chunkDir) ensure(f mem.FrameID) *Entry {
	ci := int(f >> chunkShift)
	if ci >= len(*d) {
		grown := make(chunkDir, ci+1)
		copy(grown, *d)
		*d = grown
	}
	if (*d)[ci] == nil {
		(*d)[ci] = new([chunkSize]Entry)
	}
	return &(*d)[ci][f&chunkMask]
}

// PIT is one node's Page Information Table.
type PIT struct {
	node mem.NodeID
	geom mem.Geometry
	cfg  Config

	low  chunkDir // real frames (f < highBase)
	high chunkDir // imaginary frames (f >= highBase)
	n    int      // valid entries

	// Reverse hash table: linear-probe open addressing over packed
	// global page numbers. revKeys[i] == 0 marks an empty slot (packed
	// keys are offset by one so the zero page is representable).
	revKeys []uint64
	revVals []mem.FrameID
	revLen  int

	// Free lists recycling the per-page slices across page-out /
	// page-in cycles.
	freeTags  [][]Tag
	freeBools [][]bool

	// removed holds the snapshot returned by Remove; see Remove for
	// the lifetime contract.
	removed Entry

	Stats Stats
}

// New builds an empty PIT for the given node.
func New(node mem.NodeID, geom mem.Geometry, cfg Config) *PIT {
	return &PIT{node: node, geom: geom, cfg: cfg}
}

// AccessTime returns the modeled cost of one PIT lookup.
func (p *PIT) AccessTime() sim.Time { return p.cfg.AccessTime }

// ResetStats clears the lookup counters, following the machine-wide
// reset contract: measurement counters clear, structural state
// persists — entries, tags and the reverse table are untouched.
func (p *PIT) ResetStats() { p.Stats = Stats{} }

// SetAccessTime changes the modeled lookup cost (the §4.3 PIT study).
func (p *PIT) SetAccessTime(t sim.Time) { p.cfg.AccessTime = t }

// entry returns the valid entry for f, or nil.
func (p *PIT) entry(f mem.FrameID) *Entry {
	var s *Entry
	if f < highBase {
		s = p.low.slot(f)
	} else {
		s = p.high.slot(f - highBase)
	}
	if s == nil || s.Mode == ModeInvalid {
		return nil
	}
	return s
}

// NewTags returns an all-t line-tag slice sized for one page, drawn
// from the free list when possible. Intended for callers that pre-seed
// tags before Insert (the home's all-Exclusive page-in of §3.3);
// ownership passes to the PIT at Insert.
func (p *PIT) NewTags(t Tag) []Tag {
	tags := p.getTags()
	if t != TagInvalid {
		for i := range tags {
			tags[i] = t
		}
	}
	return tags
}

func (p *PIT) getTags() []Tag {
	if n := len(p.freeTags); n > 0 {
		t := p.freeTags[n-1]
		p.freeTags[n-1] = nil
		p.freeTags = p.freeTags[:n-1]
		clear(t)
		return t
	}
	return make([]Tag, p.geom.LinesPerPage())
}

func (p *PIT) getBools() []bool {
	if n := len(p.freeBools); n > 0 {
		b := p.freeBools[n-1]
		p.freeBools[n-1] = nil
		p.freeBools = p.freeBools[:n-1]
		clear(b)
		return b
	}
	return make([]bool, p.geom.LinesPerPage())
}

// Insert binds frame f to entry e. Global-mode entries are also
// entered in the reverse hash table. Inserting over a valid entry
// panics: the kernel must Remove first (a page-out).
func (p *PIT) Insert(f mem.FrameID, e Entry) *Entry {
	var slot *Entry
	if f < highBase {
		slot = p.low.ensure(f)
	} else {
		slot = p.high.ensure(f - highBase)
	}
	if slot.Valid() {
		panic(fmt.Sprintf("pit: node %d frame %d already bound to %v", p.node, f, slot.GPage))
	}
	if e.Mode == ModeSCOMA {
		if e.Tags == nil {
			e.Tags = p.getTags() // zeroed: all TagInvalid
		}
		e.Dirty = p.getBools()
		e.invalid = 0
		for _, t := range e.Tags {
			if t == TagInvalid {
				e.invalid++
			}
		}
	}
	if e.Mode.Global() || e.Mode == ModeLocal {
		e.Touched = p.getBools()
	}
	*slot = e
	if e.Mode.Global() {
		p.revPut(e.GPage, f)
	}
	p.n++
	return slot
}

// Remove unbinds frame f, returning its entry (nil if unbound). The
// returned entry — including its Tags/Dirty/Touched slices — is a
// snapshot that stays readable only until the next Insert or NewTags
// on this PIT, which may recycle the slices; every kernel caller
// consumes it synchronously (freeFrame folds utilization in the same
// event).
func (p *PIT) Remove(f mem.FrameID) *Entry {
	slot := p.entry(f)
	if slot == nil {
		return nil
	}
	if slot.Mode.Global() {
		p.revDelete(slot.GPage, f)
	}
	p.removed = *slot
	if slot.Tags != nil {
		p.freeTags = append(p.freeTags, slot.Tags)
	}
	if slot.Dirty != nil {
		p.freeBools = append(p.freeBools, slot.Dirty)
	}
	if slot.Touched != nil {
		p.freeBools = append(p.freeBools, slot.Touched)
	}
	*slot = Entry{}
	p.n--
	return &p.removed
}

// Lookup is the forward translation: frame → entry. Cost: one access.
func (p *PIT) Lookup(f mem.FrameID) (*Entry, sim.Time) {
	p.Stats.Lookups++
	return p.entry(f), p.cfg.AccessTime
}

// Entry returns the entry without modeling a hardware access (used by
// the OS/statistics paths, which are charged separately).
func (p *PIT) Entry(f mem.FrameID) *Entry { return p.entry(f) }

// ReverseLookup translates a global page to the local frame backing
// it. guess is the frame number carried in the message (guessValid
// false if the sender had none). The returned cost models the guessed
// probe and, if needed, the hash search.
func (p *PIT) ReverseLookup(g mem.GPage, guess mem.FrameID, guessValid bool) (f mem.FrameID, ok bool, cost sim.Time) {
	cost = p.cfg.AccessTime
	p.Stats.Lookups++
	if guessValid {
		if e := p.entry(guess); e != nil && e.GPage == g {
			p.Stats.ReverseGuess++
			return guess, true, cost
		}
	}
	p.Stats.ReverseHash++
	cost += p.cfg.HashTime
	f, ok = p.revGet(g)
	return f, ok, cost
}

// FrameFor is the zero-cost reverse map used by the OS layer.
func (p *PIT) FrameFor(g mem.GPage) (mem.FrameID, bool) {
	return p.revGet(g)
}

// CheckAccess is the memory firewall (§3.2): a remote access from node
// src to frame f is allowed if src is the frame's home or holds a
// capability. The check piggybacks on the reverse translation the
// controller performs anyway, so it adds no modeled cost.
func (p *PIT) CheckAccess(f mem.FrameID, src mem.NodeID) bool {
	e := p.entry(f)
	if e == nil || !e.Mode.Global() {
		p.Stats.FirewallDrops++
		return false
	}
	if src == e.DynHome || src == e.StaticHome || src == p.node {
		return true
	}
	if e.Caps.Has(src) {
		return true
	}
	p.Stats.FirewallDrops++
	return false
}

// SetTag updates line ln's fine-grain tag, maintaining the invalid and
// transit counters. It panics if the frame is not S-COMA: callers must
// dispatch on mode first, like the hardware.
func (p *PIT) SetTag(f mem.FrameID, ln int, t Tag) {
	e := p.entry(f)
	if e == nil || e.Mode != ModeSCOMA {
		panic(fmt.Sprintf("pit: SetTag on non-S-COMA frame %d", f))
	}
	old := e.Tags[ln]
	if old == t {
		return
	}
	switch old {
	case TagInvalid:
		e.invalid--
	case TagTransit:
		e.transit--
	}
	switch t {
	case TagInvalid:
		e.invalid++
	case TagTransit:
		e.transit++
	}
	e.Tags[ln] = t
}

// Touch records an access to line ln of frame f at time now, updating
// the utilization bitmap, LRU timestamp and traffic counters.
func (p *PIT) Touch(f mem.FrameID, ln int, now sim.Time, remote bool) {
	e := p.entry(f)
	if e == nil {
		return
	}
	if e.Touched != nil && ln < len(e.Touched) {
		e.Touched[ln] = true
	}
	e.LastAccess = now
	e.AccessCount++
	if remote {
		e.RemoteTraffic++
	}
}

// Frames calls fn for every valid entry, in ascending frame order.
// (The dense table makes iteration deterministic; callers that sort
// for determinism keep working unchanged.)
func (p *PIT) Frames(fn func(mem.FrameID, *Entry)) {
	p.low.visit(0, fn)
	p.high.visit(highBase, fn)
}

func (d chunkDir) visit(base mem.FrameID, fn func(mem.FrameID, *Entry)) {
	for ci, ch := range d {
		if ch == nil {
			continue
		}
		for i := range ch {
			if ch[i].Mode != ModeInvalid {
				fn(base+mem.FrameID(ci<<chunkShift+i), &ch[i])
			}
		}
	}
}

// Len returns the number of valid entries.
func (p *PIT) Len() int { return p.n }

// ---------------------------------------------------------------------------
// Reverse hash table
// ---------------------------------------------------------------------------

// revKey packs a global page into a nonzero probe key.
func revKey(g mem.GPage) uint64 {
	return (uint64(g.Seg)<<32 | uint64(g.Page)) + 1
}

// revIndex spreads a packed key over the table (Fibonacci hashing).
func revIndex(key, mask uint64) uint64 {
	h := key * 0x9E3779B97F4A7C15
	h ^= h >> 29
	return h & mask
}

// revPut binds g to f, overwriting any previous binding (last insert
// wins, matching the map-based table it replaced).
func (p *PIT) revPut(g mem.GPage, f mem.FrameID) {
	if (p.revLen+1)*4 > len(p.revKeys)*3 {
		p.revGrow()
	}
	p.revInsert(revKey(g), f)
}

func (p *PIT) revInsert(key uint64, f mem.FrameID) {
	mask := uint64(len(p.revKeys) - 1)
	i := revIndex(key, mask)
	for {
		switch p.revKeys[i] {
		case 0:
			p.revKeys[i] = key
			p.revVals[i] = f
			p.revLen++
			return
		case key:
			p.revVals[i] = f
			return
		}
		i = (i + 1) & mask
	}
}

func (p *PIT) revGrow() {
	oldK, oldV := p.revKeys, p.revVals
	n := len(oldK) * 2
	if n == 0 {
		n = 64
	}
	p.revKeys = make([]uint64, n)
	p.revVals = make([]mem.FrameID, n)
	p.revLen = 0
	for i, k := range oldK {
		if k != 0 {
			p.revInsert(k, oldV[i])
		}
	}
}

func (p *PIT) revGet(g mem.GPage) (mem.FrameID, bool) {
	if p.revLen == 0 {
		return 0, false
	}
	key := revKey(g)
	mask := uint64(len(p.revKeys) - 1)
	i := revIndex(key, mask)
	for {
		switch p.revKeys[i] {
		case 0:
			return 0, false
		case key:
			return p.revVals[i], true
		}
		i = (i + 1) & mask
	}
}

// revDelete unbinds g only if it currently maps to f (a frame being
// removed may have been superseded in the reverse table by a later
// Insert for the same page). Deletion backward-shifts the probe chain
// so lookups never need tombstones.
func (p *PIT) revDelete(g mem.GPage, f mem.FrameID) {
	if p.revLen == 0 {
		return
	}
	key := revKey(g)
	mask := uint64(len(p.revKeys) - 1)
	i := revIndex(key, mask)
	for p.revKeys[i] != key {
		if p.revKeys[i] == 0 {
			return
		}
		i = (i + 1) & mask
	}
	if p.revVals[i] != f {
		return
	}
	p.revLen--
	j := i
	for {
		j = (j + 1) & mask
		if p.revKeys[j] == 0 {
			break
		}
		// The entry at j can fill the hole at i iff its probe path
		// passes through i: its displacement from home reaches at
		// least as far as i does.
		h := revIndex(p.revKeys[j], mask)
		if (j-h)&mask >= (j-i)&mask {
			p.revKeys[i] = p.revKeys[j]
			p.revVals[i] = p.revVals[j]
			i = j
		}
	}
	p.revKeys[i] = 0
}

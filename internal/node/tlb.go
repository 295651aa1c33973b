package node

import "prism/internal/mem"

// tlb is a small fully-associative LRU TLB whose every operation takes
// constant time. Translations live in flat slot arrays: packed page
// keys (mem.VPage.Key, 0 = empty slot), frames and LRU stamps. Three
// structures find slots without scanning them:
//
//   - index, an open-addressing hash table from page key to slot
//     (linear probing, backward-shift deletion, so no tombstones),
//     whose buckets hold slot+1 and find the key in keys;
//   - a doubly linked LRU list over the occupied slots, most recently
//     used at head, least recently used at tail;
//   - free, a stack of the empty slots.
//
// Every hit and insert stamps its slot with a fresh clock++ and moves
// it to the head, so stamps are unique and rise from tail to head: the
// tail is the minimum-stamp slot, the entry a full insert evicts. The
// stamps themselves are kept for the snapshot only. last is the head
// slot, so consecutive references to one page cost a single compare
// and no list move.
type tlb struct {
	keys   []uint64
	frames []mem.FrameID
	stamps []uint64

	prev, next []int32 // LRU list links; -1 ends the list
	head, tail int32   // most and least recently used slots, -1 when empty
	free       []int32 // empty slots, lowest on top

	index      []int32 // slot+1 per bucket, 0 = empty bucket
	indexShift uint    // 64 - log2(len(index))

	last  int
	clock uint64
}

// tlbIndexSpread is how many index buckets the TLB keeps per slot. At
// a load of at most 1/4, a linear probe rarely reads past one bucket.
const tlbIndexSpread = 4

func newTLB(capacity int) *tlb {
	if capacity <= 0 {
		capacity = 64
	}
	shift := 64
	for 1<<(64-shift) < tlbIndexSpread*capacity {
		shift--
	}
	t := &tlb{
		keys:       make([]uint64, capacity),
		frames:     make([]mem.FrameID, capacity),
		stamps:     make([]uint64, capacity),
		prev:       make([]int32, capacity),
		next:       make([]int32, capacity),
		free:       make([]int32, 0, capacity),
		index:      make([]int32, 1<<(64-shift)),
		indexShift: uint(shift),
	}
	t.reset(0)
	return t
}

// reset empties the list and marks slots [used, capacity) free.
func (t *tlb) reset(used int) {
	t.head, t.tail = -1, -1
	t.free = t.free[:0]
	for s := len(t.keys) - 1; s >= used; s-- {
		t.free = append(t.free, int32(s))
	}
}

// probe returns the index bucket holding key, or the empty bucket that
// ends key's probe sequence.
func (t *tlb) probe(key uint64) int {
	mask := len(t.index) - 1
	b := t.home(key)
	for e := t.index[b]; e != 0 && t.keys[e-1] != key; e = t.index[b] {
		b = (b + 1) & mask
	}
	return b
}

// home is key's first bucket (Fibonacci hashing).
func (t *tlb) home(key uint64) int {
	return int((key * 0x9E3779B97F4A7C15) >> t.indexShift)
}

// unindex empties bucket b, shifting later entries of its probe run
// back so every remaining key stays reachable from its home.
func (t *tlb) unindex(b int) {
	mask := len(t.index) - 1
	for j := (b + 1) & mask; t.index[j] != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole unless its home lies
		// cyclically after the hole.
		if (j-t.home(t.keys[t.index[j]-1]))&mask >= (j-b)&mask {
			t.index[b] = t.index[j]
			b = j
		}
	}
	t.index[b] = 0
}

func (t *tlb) unlink(s int32) {
	p, n := t.prev[s], t.next[s]
	if p >= 0 {
		t.next[p] = n
	} else {
		t.head = n
	}
	if n >= 0 {
		t.prev[n] = p
	} else {
		t.tail = p
	}
}

func (t *tlb) pushFront(s int32) {
	t.prev[s], t.next[s] = -1, t.head
	if t.head >= 0 {
		t.prev[t.head] = s
	} else {
		t.tail = s
	}
	t.head = s
}

func (t *tlb) lookup(vp mem.VPage) (mem.FrameID, bool) {
	key := vp.Key()
	i := t.last
	if t.keys[i] != key {
		e := t.index[t.probe(key)]
		if e == 0 {
			return 0, false
		}
		s := e - 1
		if s != t.head {
			t.unlink(s)
			t.pushFront(s)
		}
		i = int(s)
		t.last = i
	}
	t.clock++
	t.stamps[i] = t.clock
	return t.frames[i], true
}

// insert installs a translation for a page that is not resident,
// taking an empty slot or, when the TLB is full, the least recently
// used one.
func (t *tlb) insert(vp mem.VPage, f mem.FrameID) {
	var s int32
	if k := len(t.free); k > 0 {
		s = t.free[k-1]
		t.free = t.free[:k-1]
	} else {
		s = t.tail
		t.unindex(t.probe(t.keys[s]))
		t.unlink(s)
	}
	key := vp.Key()
	t.clock++
	t.keys[s], t.frames[s], t.stamps[s] = key, f, t.clock
	t.index[t.probe(key)] = s + 1
	t.pushFront(s)
	t.last = int(s)
}

func (t *tlb) invalidate(vp mem.VPage) {
	b := t.probe(vp.Key())
	if t.index[b] == 0 {
		return
	}
	s := t.index[b] - 1
	t.unindex(b)
	t.unlink(s)
	t.keys[s] = 0
	t.free = append(t.free, s)
}

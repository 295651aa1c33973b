package cache

import (
	"fmt"
	"math/bits"

	"prism/internal/mem"
)

// Filter is a counting presence filter over line addresses, shared by
// the caches of one node. It keeps one counter per hash bucket, and
// every attached cache raises its line's bucket when a line turns
// valid and lowers it when the line turns Invalid. Lines share
// buckets, so a nonzero count only says that some attached cache may
// hold the line; a zero count proves that none does, which is the
// only answer a snooping bus acts on.
type Filter struct {
	counts    []uint16
	shift     uint // 64 - log2(len(counts))
	lineShift uint
}

// MaxFilterLines bounds the lines the caches sharing one filter may
// hold together, so that no counter can overflow its 16 bits.
const MaxFilterLines = 1<<16 - 1

// filterSpread is the number of buckets a filter keeps per line its
// caches can hold. At a load of at most 1/8, about one absent line in
// nine shares a bucket with a held one.
const filterSpread = 8

// NewFilter builds a filter for caches that hold at most lines lines
// of lineSize bytes in total. It panics if lines is not in
// [1, MaxFilterLines] or lineSize is not a power of two; machine
// configurations are validated before they get here.
func NewFilter(lines, lineSize int) *Filter {
	if lines <= 0 || lines > MaxFilterLines {
		panic(fmt.Sprintf("cache: filter for %d lines, want 1..%d", lines, MaxFilterLines))
	}
	if lineSize <= 0 || lineSize&(lineSize-1) != 0 {
		panic(fmt.Sprintf("cache: filter line size %d not a power of two", lineSize))
	}
	logN := bits.Len(uint(lines*filterSpread - 1))
	return &Filter{
		counts:    make([]uint16, 1<<logN),
		shift:     uint(64 - logN),
		lineShift: uint(bits.TrailingZeros(uint(lineSize))),
	}
}

// bucket maps a line address (a physical address shifted right by the
// line size) to its counter (Fibonacci hashing).
func (f *Filter) bucket(la uint64) uint64 { return (la * 0x9E3779B97F4A7C15) >> f.shift }

// MayHold reports whether an attached cache may hold pa's line. False
// proves that none does.
func (f *Filter) MayHold(pa mem.PAddr) bool {
	return f.counts[f.bucket(uint64(pa)>>f.lineShift)] != 0
}

// ShareFilter attaches c to f: from now on c reports every line that
// turns valid or Invalid, and its valid lines are counted in at once.
// A cache reports to at most one filter, whose line size it must share.
func (c *Cache) ShareFilter(f *Filter) {
	if c.filter != nil {
		panic(fmt.Sprintf("cache %s: already shares a filter", c.name))
	}
	if f.lineShift != c.lineShift {
		panic(fmt.Sprintf("cache %s: filter line size %d, cache %d", c.name, 1<<f.lineShift, 1<<c.lineShift))
	}
	c.filter = f
	c.countValid(true)
}

// add and remove count line la in or out.
func (f *Filter) add(la uint64)    { f.counts[f.bucket(la)]++ }
func (f *Filter) remove(la uint64) { f.counts[f.bucket(la)]-- }

// lineAdded and lineGone report that pa's line of c turned valid or
// Invalid to c's filter, if it has one.
func (c *Cache) lineAdded(pa mem.PAddr) {
	if c.filter != nil {
		c.filter.add(uint64(pa) >> c.lineShift)
	}
}

func (c *Cache) lineGone(pa mem.PAddr) {
	if c.filter != nil {
		c.filter.remove(uint64(pa) >> c.lineShift)
	}
}

// countValid counts every valid line of c in (add) or out of its filter.
func (c *Cache) countValid(add bool) {
	for i := range c.lines {
		if c.lines[i].state == Invalid {
			continue
		}
		if add {
			c.filter.add(c.slotLine(i))
		} else {
			c.filter.remove(c.slotLine(i))
		}
	}
}

// slotLine returns the line address held in slot i.
func (c *Cache) slotLine(i int) uint64 {
	return c.lines[i].tag<<c.setShift | uint64(i/c.ways)
}

// Check recounts the valid lines of caches, which must be every
// cache attached to f, and reports the first bucket whose counter
// differs from the recount.
func (f *Filter) Check(caches ...*Cache) error {
	want := make([]int, len(f.counts))
	for _, c := range caches {
		if c.filter != f {
			return fmt.Errorf("cache %s: not attached to the filter it is checked against", c.name)
		}
		for i := range c.lines {
			if c.lines[i].state != Invalid {
				want[f.bucket(c.slotLine(i))]++
			}
		}
	}
	for b, n := range want {
		if int(f.counts[b]) != n {
			return fmt.Errorf("cache: filter bucket %d counts %d lines, its caches hold %d", b, f.counts[b], n)
		}
	}
	return nil
}

// CheckIncludedIn reports the first valid line of c that outer does not
// hold valid.
func (c *Cache) CheckIncludedIn(outer *Cache) error {
	for i := range c.lines {
		if c.lines[i].state == Invalid {
			continue
		}
		pa := mem.PAddr(c.slotLine(i) << c.lineShift)
		if outer.Probe(pa) == Invalid {
			return fmt.Errorf("cache: %s holds line %#x in %v, %s does not hold it", c.name, uint64(pa), c.lines[i].state, outer.name)
		}
	}
	return nil
}

// Package cache implements the set-associative, write-back,
// write-allocate processor caches (L1 and L2) of the simulated
// machine, with MESI line states and LRU replacement.
//
// Caches are indexed by node-local physical addresses — in PRISM even
// LA-NUMA (imaginary) frames have node-local physical addresses, so
// the processor-side hierarchy is oblivious to page modes.
package cache

import (
	"fmt"
	"math/bits"

	"prism/internal/mem"
)

// State is a MESI cache-line state.
type State uint8

// MESI states. Invalid must be the zero value.
const (
	Invalid State = iota
	Shared
	Exclusive
	Modified
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// Dirty reports whether a line in this state holds data newer than
// the next level.
func (s State) Dirty() bool { return s == Modified }

// Writable reports whether a write hit can proceed without a bus
// transaction.
func (s State) Writable() bool { return s == Exclusive || s == Modified }

type line struct {
	tag   uint64
	state State
	lru   uint64
}

// Stats counts cache events.
type Stats struct {
	Reads       uint64
	Writes      uint64
	ReadMisses  uint64
	WriteMisses uint64
	Upgrades    uint64 // write hits on Shared lines
	Evictions   uint64
	Writebacks  uint64 // dirty evictions
}

// Hits returns total hits.
func (s *Stats) Hits() uint64 { return s.Reads + s.Writes - s.Misses() }

// Misses returns total misses (upgrades are not misses).
func (s *Stats) Misses() uint64 { return s.ReadMisses + s.WriteMisses }

// Reset zeroes the counters.
func (s *Stats) Reset() { *s = Stats{} }

// Cache is one level of a processor cache.
type Cache struct {
	name      string
	sets      int
	ways      int
	lineShift uint
	setShift  uint // log2(sets): where the tag starts in a line address
	setMask   uint64
	lines     []line // sets*ways, row-major by set
	clock     uint64

	// frameDirty is InvalidateFrame's reused result buffer.
	frameDirty []mem.PAddr

	// filter, when set, counts this cache's valid lines together with
	// the other caches of its node (see Filter). Every method that turns
	// a line valid or Invalid reports it.
	filter *Filter

	Stats Stats
}

// Config describes a cache's geometry.
type Config struct {
	Size     int // total bytes
	Ways     int // associativity
	LineSize int // bytes
}

// Validate reports whether the configuration is internally consistent.
func (c Config) Validate() error {
	if c.Size <= 0 || c.Ways <= 0 || c.LineSize <= 0 {
		return fmt.Errorf("cache: non-positive parameter in %+v", c)
	}
	if c.Size%(c.Ways*c.LineSize) != 0 {
		return fmt.Errorf("cache: size %d not divisible by ways*line %d", c.Size, c.Ways*c.LineSize)
	}
	sets := c.Size / (c.Ways * c.LineSize)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	if c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("cache: line size %d not a power of two", c.LineSize)
	}
	return nil
}

// New builds a cache. It panics on an invalid configuration; validate
// configurations at machine-build time with Config.Validate.
func New(name string, cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := cfg.Size / (cfg.Ways * cfg.LineSize)
	return &Cache{
		name:      name,
		sets:      sets,
		ways:      cfg.Ways,
		lineShift: uint(bits.TrailingZeros(uint(cfg.LineSize))),
		setShift:  uint(bits.TrailingZeros(uint(sets))),
		setMask:   uint64(sets - 1),
		lines:     make([]line, sets*cfg.Ways),
	}
}

// Name returns the cache's diagnostic name.
func (c *Cache) Name() string { return c.name }

// ResetStats clears the event counters, following the machine-wide
// reset contract: measurement counters clear, structural state
// persists — line contents, MESI states and the LRU clock all keep
// their values so the reset cannot perturb subsequent execution.
func (c *Cache) ResetStats() { c.Stats.Reset() }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// LineSize returns the line size in bytes.
func (c *Cache) LineSize() int { return 1 << c.lineShift }

func (c *Cache) index(pa mem.PAddr) (set int, tag uint64) {
	la := uint64(pa) >> c.lineShift
	return int(la & c.setMask), la >> c.setShift
}

func (c *Cache) find(set int, tag uint64) int {
	base := set * c.ways
	for w := 0; w < c.ways; w++ {
		l := &c.lines[base+w]
		if l.state != Invalid && l.tag == tag {
			return base + w
		}
	}
	return -1
}

// Probe returns the state of the line containing pa without updating
// LRU or statistics.
func (c *Cache) Probe(pa mem.PAddr) State {
	set, tag := c.index(pa)
	if i := c.find(set, tag); i >= 0 {
		return c.lines[i].state
	}
	return Invalid
}

// AccessResult classifies a processor access.
type AccessResult uint8

// Access outcomes.
const (
	Hit        AccessResult = iota // satisfied in place
	HitUpgrade                     // write hit on Shared: needs an upgrade transaction
	Miss                           // line absent
)

// Access performs a read (write=false) or write (write=true) lookup,
// updating LRU and stats. On a write hit to a Writable line the state
// becomes Modified. A write hit on Shared returns HitUpgrade and does
// NOT change state (the caller performs the upgrade via SetState after
// the bus transaction completes).
func (c *Cache) Access(pa mem.PAddr, write bool) AccessResult {
	set, tag := c.index(pa)
	c.clock++
	if write {
		c.Stats.Writes++
	} else {
		c.Stats.Reads++
	}
	i := c.find(set, tag)
	if i < 0 {
		if write {
			c.Stats.WriteMisses++
		} else {
			c.Stats.ReadMisses++
		}
		return Miss
	}
	l := &c.lines[i]
	l.lru = c.clock
	if !write {
		return Hit
	}
	if l.state.Writable() {
		l.state = Modified
		return Hit
	}
	c.Stats.Upgrades++
	return HitUpgrade
}

// Victim describes a line evicted by Insert.
type Victim struct {
	Addr  mem.PAddr // line-aligned address of the evicted line
	Dirty bool      // needed a writeback
	Valid bool      // false if the fill used an empty way
}

// Insert places pa's line in state st, evicting the LRU way of its set
// if necessary, and returns the victim. Inserting a line that is
// already present just updates its state.
func (c *Cache) Insert(pa mem.PAddr, st State) Victim {
	set, tag := c.index(pa)
	c.clock++
	if i := c.find(set, tag); i >= 0 {
		if st == Invalid {
			c.lineGone(pa)
		}
		c.lines[i].state = st
		c.lines[i].lru = c.clock
		return Victim{}
	}
	base := set * c.ways
	victim := base
	for w := 0; w < c.ways; w++ {
		l := &c.lines[base+w]
		if l.state == Invalid {
			victim = base + w
			break
		}
		if l.lru < c.lines[victim].lru {
			victim = base + w
		}
	}
	v := Victim{}
	l := &c.lines[victim]
	if l.state != Invalid {
		v = Victim{Addr: c.lineAddr(set, l.tag), Dirty: l.state.Dirty(), Valid: true}
		c.Stats.Evictions++
		if v.Dirty {
			c.Stats.Writebacks++
		}
		c.lineGone(v.Addr)
	}
	*l = line{tag: tag, state: st, lru: c.clock}
	if st != Invalid {
		c.lineAdded(pa)
	}
	return v
}

func (c *Cache) lineAddr(set int, tag uint64) mem.PAddr {
	la := tag<<c.setShift | uint64(set)
	return mem.PAddr(la << c.lineShift)
}

// SetState changes the state of a present line. It reports whether the
// line was present. Setting Invalid invalidates.
func (c *Cache) SetState(pa mem.PAddr, st State) bool {
	set, tag := c.index(pa)
	i := c.find(set, tag)
	if i < 0 {
		return false
	}
	if st == Invalid {
		c.lineGone(pa)
	}
	c.lines[i].state = st
	return true
}

// Invalidate removes pa's line, returning its prior state.
func (c *Cache) Invalidate(pa mem.PAddr) State {
	set, tag := c.index(pa)
	i := c.find(set, tag)
	if i < 0 {
		return Invalid
	}
	st := c.lines[i].state
	c.lines[i].state = Invalid
	c.lineGone(pa)
	return st
}

// InvalidateFrame removes every line belonging to physical frame f
// (geometry g) and returns the line-aligned addresses of the lines
// that were Modified (which the caller must write back). Used on
// page-out and page-mode conversion. The returned slice is a reused
// buffer, valid only until the next InvalidateFrame on this cache.
func (c *Cache) InvalidateFrame(g mem.Geometry, f mem.FrameID) []mem.PAddr {
	dirty := c.frameDirty[:0]
	for ln := 0; ln < g.LinesPerPage(); ln++ {
		pa := mem.NewPAddr(g, f, ln*g.LineSize)
		set, tag := c.index(pa)
		if i := c.find(set, tag); i >= 0 {
			if c.lines[i].state == Modified {
				dirty = append(dirty, pa)
			}
			c.lines[i].state = Invalid
			c.lineGone(pa)
		}
	}
	c.frameDirty = dirty
	return dirty
}

// Flush invalidates everything, returning the count of dirty lines
// discarded. Used only by tests and machine reset.
func (c *Cache) Flush() int {
	if c.filter != nil {
		c.countValid(false)
	}
	n := 0
	for i := range c.lines {
		if c.lines[i].state == Modified {
			n++
		}
		c.lines[i].state = Invalid
	}
	return n
}

// CountValid returns the number of valid lines (any non-Invalid state).
func (c *Cache) CountValid() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].state != Invalid {
			n++
		}
	}
	return n
}

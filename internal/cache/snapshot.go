package cache

import "fmt"

// LineState is one cache line's serializable state, row-major by set
// (way position matters: Insert picks the first Invalid way, so the
// layout is part of the replacement behaviour, not just the contents).
type LineState struct {
	Tag   uint64
	State State
	LRU   uint64
}

// CacheState is a cache's complete serializable state. Geometry is not
// captured — it comes from the machine configuration, and ImportState
// checks the line count matches.
type CacheState struct {
	Clock uint64
	Lines []LineState
	Stats Stats
}

// ExportState captures the cache.
func (c *Cache) ExportState() CacheState {
	s := CacheState{Clock: c.clock, Stats: c.Stats, Lines: make([]LineState, len(c.lines))}
	for i, l := range c.lines {
		s.Lines[i] = LineState{Tag: l.tag, State: l.state, LRU: l.lru}
	}
	return s
}

// ImportState restores the cache. The receiving cache must have been
// built with the same geometry as the exporter.
func (c *Cache) ImportState(s CacheState) error {
	if len(s.Lines) != len(c.lines) {
		return fmt.Errorf("cache %s: snapshot has %d lines, cache has %d (geometry mismatch)", c.name, len(s.Lines), len(c.lines))
	}
	if c.filter != nil {
		c.countValid(false)
	}
	c.clock = s.Clock
	c.Stats = s.Stats
	for i, l := range s.Lines {
		c.lines[i] = line{tag: l.Tag, state: l.State, lru: l.LRU}
	}
	if c.filter != nil {
		c.countValid(true)
	}
	return nil
}

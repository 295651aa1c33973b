package server

import (
	"sync"
	"sync/atomic"
)

// MetricsCell is one sweep cell's telemetry export, exactly the bytes
// harness would have written to <MetricsDir>/<cell>.json.
type MetricsCell struct {
	Cell string `json:"cell"` // harness.Cell.Name
	JSON []byte `json:"json"`
}

// Result is one job's complete output: the sweep CSV and, when the
// spec asked for telemetry, the per-cell metrics exports. Results are
// immutable once stored; callers must not mutate the byte slices.
type Result struct {
	CSV     []byte
	Metrics []MetricsCell
	// Caps records the per-node page-cache caps the SCOMA sizing pass
	// derived for each app — what a capped cell's .prismcase export
	// needs to reproduce the run.
	Caps map[string][]int
}

// Cell returns the named cell's metrics export, or nil.
func (r *Result) Cell(name string) []byte {
	for _, c := range r.Metrics {
		if c.Cell == name {
			return c.JSON
		}
	}
	return nil
}

// Cache is the content-addressed look-aside result cache: digest →
// Result, FIFO-evicted at a bounded entry count, with hit/miss
// counters exported through the server's metrics registry. It is
// safe for concurrent use.
type Cache struct {
	mu      sync.Mutex
	max     int
	entries map[string]*Result
	order   []string // insertion order, for FIFO eviction

	hits   atomic.Uint64
	misses atomic.Uint64
}

// NewCache builds a cache bounded at max entries (<=0 means the
// default, 256).
func NewCache(max int) *Cache {
	if max <= 0 {
		max = 256
	}
	return &Cache{max: max, entries: make(map[string]*Result)}
}

// Get looks a digest up, counting the hit or miss.
func (c *Cache) Get(digest string) (*Result, bool) {
	c.mu.Lock()
	res, ok := c.entries[digest]
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return res, ok
}

// Put stores a result, evicting the oldest entry beyond the bound.
// Re-putting an existing digest refreshes nothing (first result wins —
// by determinism both are byte-identical anyway).
func (c *Cache) Put(digest string, res *Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.entries[digest]; dup {
		return
	}
	c.entries[digest] = res
	c.order = append(c.order, digest)
	for len(c.order) > c.max {
		delete(c.entries, c.order[0])
		c.order = c.order[1:]
	}
}

// Len returns the number of cached results.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Hits and Misses expose the lookup counters.
func (c *Cache) Hits() uint64   { return c.hits.Load() }
func (c *Cache) Misses() uint64 { return c.misses.Load() }

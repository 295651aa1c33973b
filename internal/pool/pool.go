// Package pool provides the one free list behind the simulator's
// allocation-free steady state: a LIFO stack of recycled records
// (protocol messages, transactions, events) owned by engine-confined
// components.
//
// A Free list is deliberately not synchronized: every pool hangs off one
// model component, which a single goroutine drives (the one-owner
// invariant documented in internal/sim). Pools may be shared across
// the components of one machine — a message acquired from node A's
// pool and released into node B's merely redistributes capacity —
// but never across machines.
//
// Get returns a zeroed object; Put zeroes before pooling so stale
// fields from a previous life can never leak into the next one (the
// same discipline keeps the protocol byte-identical with pooling on
// or off: a recycled record is indistinguishable from a fresh one).
// Because Put zeroes the whole record, a record that points back at
// its owner gets that pointer set again at every Get, and reads its
// own fields before it puts itself back.
package pool

// Free is a LIFO free list of *T. The zero value is ready to use.
type Free[T any] struct {
	free []*T
}

// Get pops a recycled object, or allocates one if the list is empty.
// The result is always the zero value of T.
func (p *Free[T]) Get() *T {
	if n := len(p.free); n > 0 {
		x := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return x
	}
	return new(T)
}

// Put zeroes x and pushes it onto the list. The caller must not touch
// x afterwards; any pointers it held are dropped by the zeroing so
// pooled objects never pin dead memory.
func (p *Free[T]) Put(x *T) {
	var zero T
	*x = zero
	p.free = append(p.free, x)
}

// Len returns the number of pooled objects (tests and introspection).
func (p *Free[T]) Len() int { return len(p.free) }

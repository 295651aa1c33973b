package mem

import (
	"fmt"
	"math/bits"
)

// NodeSet is a fixed-width node bitmap sized for MaxNodes. It backs
// every per-node bitmask in the machine — directory sharer vectors,
// firewall capability masks, the home kernel's client maps — so all of
// them widen together when MaxNodes grows. It is a value type (copied
// wholesale by checkpoint serialization) and its zero value is the
// empty set.
type NodeSet [MaxNodes / 64]uint64

// NodeSetOf returns the set containing exactly the given nodes.
func NodeSetOf(ns ...NodeID) NodeSet {
	var s NodeSet
	for _, n := range ns {
		s.Add(n)
	}
	return s
}

// AllNodes returns the set with every representable node present.
func AllNodes() NodeSet {
	var s NodeSet
	for i := range s {
		s[i] = ^uint64(0)
	}
	return s
}

// Add sets node's bit.
func (s *NodeSet) Add(n NodeID) { s[uint(n)>>6] |= 1 << (uint(n) & 63) }

// Drop clears node's bit.
func (s *NodeSet) Drop(n NodeID) { s[uint(n)>>6] &^= 1 << (uint(n) & 63) }

// Has reports whether node's bit is set.
func (s *NodeSet) Has(n NodeID) bool { return s[uint(n)>>6]&(1<<(uint(n)&63)) != 0 }

// Count returns the number of bits set.
func (s *NodeSet) Count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// List appends the set's members in ascending node order to buf and
// returns the extended slice (pass nil to allocate).
func (s *NodeSet) List(buf []NodeID) []NodeID {
	for wi, w := range s {
		for ; w != 0; w &= w - 1 {
			buf = append(buf, NodeID(wi<<6+bits.TrailingZeros64(w)))
		}
	}
	return buf
}

func (s NodeSet) String() string {
	var hi uint64
	for _, w := range s[1:] {
		hi |= w
	}
	if hi == 0 {
		return fmt.Sprintf("%b", s[0])
	}
	return fmt.Sprintf("%x:%x:%x:%x", s[3], s[2], s[1], s[0])
}

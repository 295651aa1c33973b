package node

import "prism/internal/cache"

// L2Filter exposes the node's snoop filter to the external tests.
func (n *Node) L2Filter() *cache.Filter { return n.l2Filter }

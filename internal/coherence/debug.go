package coherence

import (
	"fmt"
	"strings"
)

// DebugState dumps outstanding transactions, for deadlock diagnostics.
func (c *Controller) DebugState() string {
	var b strings.Builder
	for k, t := range c.client {
		fmt.Fprintf(&b, "node%d client txn %v:%d frame=%d excl=%v waiters=%d\n",
			c.node, k.page, k.line, t.frame, t.excl, len(t.waiters))
	}
	for k, t := range c.home {
		fmt.Fprintf(&b, "node%d home txn %v:%d needAcks=%d recall=%v queued=%d\n",
			c.node, k.page, k.line, t.needAcks, t.recall, len(c.homeQ[k]))
	}
	for k, q := range c.homeQ {
		if c.home[k] == nil && len(q) > 0 {
			fmt.Fprintf(&b, "node%d ORPHAN queue %v:%d len=%d\n", c.node, k.page, k.line, len(q))
		}
	}
	for tok := range c.flushWait {
		fmt.Fprintf(&b, "node%d flush wait token=%d\n", c.node, tok)
	}
	return b.String()
}

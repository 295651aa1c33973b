// Firewall: PRISM's fault-containment boundary (§3.2). Because
// physical addresses never address remote memory directly, every
// remote access is checked against the PIT at the home; extending a
// PIT entry with a capability list filters out wild writes from
// faulty nodes. This demo maps a page shared by nodes 0 and 1,
// restricts its capability list to those nodes, and lets a "faulty"
// node 7 attempt wild writes: the home rejects them, the writer takes
// an access fault, and the victims' data traffic is untouched.
//
//	go run ./examples/firewall
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"prism"
	"prism/internal/mem"
	"prism/workloads"
)

type firewallWL struct {
	m    *prism.Machine
	base prism.VAddr

	wildAttempts int
	wildFaults   uint64
	goodFaults   uint64
	drops        uint64
	err          error // SetPageCaps's failure, reported after the run
}

func (w *firewallWL) Name() string { return "firewall" }

func (w *firewallWL) Setup(m *prism.Machine) error {
	w.m = m
	b, err := m.Alloc("fw.data", 64<<10)
	w.base = b
	return err
}

func (w *firewallWL) Run(ctx *prism.Ctx) {
	p := ctx.P
	nodeID := p.Node().ID
	pageSize := 4096

	// Node 0 maps the protected page and installs the capability list.
	if ctx.ID == 0 {
		p.WriteRange(w.base, pageSize)
		w.err = w.m.SetPageCaps(w.base, []prism.NodeID{0, 1})
	}
	p.Barrier(1)

	switch {
	case nodeID == 1 && ctx.ID%4 == 0:
		// Authorized sharer: normal reads and writes.
		p.ReadRange(w.base, pageSize)
		p.WriteRange(w.base, pageSize/2)
	case nodeID == 7 && ctx.ID%4 == 0:
		// Faulty node: wild writes into the protected page.
		for i := 0; i < 16; i++ {
			p.Write(w.base + prism.VAddr(i*64))
			w.wildAttempts++
		}
	}
	p.Barrier(2)

	if ctx.ID == 0 {
		for _, q := range w.m.Procs {
			if q.Node().ID == mem.NodeID(7) {
				w.wildFaults += q.Stats.AccessFaults
			}
			if q.Node().ID == mem.NodeID(1) {
				w.goodFaults += q.Stats.AccessFaults
			}
		}
		home, _ := w.m.StaticHomeOf(w.base)
		w.drops = w.m.Nodes[home].Ctrl.PIT.Stats.FirewallDrops
	}
}

// report runs the demo and writes its fault and drop counts to out.
func report(out io.Writer) error {
	cfg := workloads.ConfigForSize(workloads.CISize)
	cfg.Policy = prism.MustPolicy("SCOMA")
	m, err := prism.New(cfg)
	if err != nil {
		return err
	}
	w := &firewallWL{}
	if _, err := m.Run(w); err != nil {
		return err
	}
	if w.err != nil {
		return w.err
	}

	fmt.Fprintln(out, "Memory firewall (PIT capability list) demo:")
	fmt.Fprintf(out, "  wild writes attempted by faulty node 7: %d\n", w.wildAttempts)
	fmt.Fprintf(out, "  access faults taken by node 7:          %d\n", w.wildFaults)
	fmt.Fprintf(out, "  firewall drops recorded at the home:    %d\n", w.drops)
	fmt.Fprintf(out, "  access faults at authorized node 1:     %d\n", w.goodFaults)
	if w.wildFaults > 0 && w.goodFaults == 0 {
		fmt.Fprintln(out, "  ✓ wild writes contained; authorized traffic unaffected")
	} else {
		fmt.Fprintln(out, "  ✗ unexpected outcome")
	}
	return nil
}

func main() {
	if err := report(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

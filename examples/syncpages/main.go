// Syncpages: §3.2's synchronization-page frame mode. PRISM's
// controller dispatches by page-frame mode, so a frame can invoke a
// locking protocol instead of the coherence protocol: each line of a
// Sync-mode page is a queue lock at the page's home controller, and a
// contended release hands the lock to the next waiter with one
// message. This demo hammers a handful of locks from all 32
// processors, once with ordinary coherent test-and-test&set locks and
// once with Sync-mode pages, and compares cycles and traffic.
//
//	go run ./examples/syncpages
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"prism"
	"prism/workloads"
)

// contendWL: every processor loops acquire→update shared counter
// line→release over a small set of hot locks.
type contendWL struct {
	base   prism.VAddr
	rounds int
	locks  int
}

func (w *contendWL) Name() string { return "contend" }

func (w *contendWL) Setup(m *prism.Machine) error {
	w.rounds = 120
	w.locks = 4
	b, err := m.Alloc("contend.data", 4096)
	w.base = b
	return err
}

func (w *contendWL) Run(ctx *prism.Ctx) {
	p := ctx.P
	ctx.BeginParallel()
	for i := 0; i < w.rounds; i++ {
		lk := (ctx.ID + i) % w.locks
		p.Lock(lk)
		p.Read(w.base + prism.VAddr(lk*64))
		p.Write(w.base + prism.VAddr(lk*64))
		p.Unlock(lk)
		p.Compute(50)
	}
	ctx.EndParallel()
}

func run(hw bool) (prism.Results, error) {
	cfg := workloads.ConfigForSize(workloads.CISize)
	cfg.Policy = prism.MustPolicy("SCOMA")
	cfg.HardwareSync = hw
	m, err := prism.New(cfg)
	if err != nil {
		return prism.Results{}, err
	}
	return m.Run(&contendWL{})
}

// report runs the workload with both lock kinds and writes their
// cycles, remote misses plus upgrades and messages, with the ratios,
// to w.
func report(w io.Writer) error {
	sw, err := run(false)
	if err != nil {
		return err
	}
	hw, err := run(true)
	if err != nil {
		return err
	}
	swRemote, hwRemote := sw.RemoteMisses+sw.Upgrades, hw.RemoteMisses+hw.Upgrades

	fmt.Fprintln(w, "4 hot locks, 32 processors, 120 critical sections each:")
	fmt.Fprintf(w, "  coherent test&set locks: cycles=%-10d remote+upgrades=%-7d msgs=%d\n",
		sw.Cycles, swRemote, sw.NetMessages)
	fmt.Fprintf(w, "  Sync-mode page locks:    cycles=%-10d remote+upgrades=%-7d msgs=%d\n",
		hw.Cycles, hwRemote, hw.NetMessages)
	fmt.Fprintf(w, "  Sync-mode vs test&set: %.2fx the speed, %.2fx the messages, %.2fx the remote+upgrades\n",
		float64(sw.Cycles)/float64(hw.Cycles),
		float64(hw.NetMessages)/float64(sw.NetMessages),
		float64(hwRemote)/float64(swRemote))
	return nil
}

func main() {
	if err := report(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// Migration: lazy page migration (§3.5) in action. A skewed workload
// makes node 5's processors hammer pages whose round-robin static
// homes are scattered across the machine — first with fixed homes,
// then with the run-time migration daemon attached. Migrating the hot
// pages' dynamic homes to node 5 converts its remote misses into local
// ones without any global coordination: stale client PIT entries
// self-correct through misdirected-request forwarding.
//
//	go run ./examples/migration
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

// skewWL: every processor touches the whole array once (so every node
// maps the pages and holds hints), then node `hot`'s processors loop
// over it many times with writes while everyone else idles.
type skewWL struct {
	base  prism.VAddr
	bytes int
	hot   int // hot node
	loops int
}

func (w *skewWL) Name() string { return "skew" }

func (w *skewWL) Setup(m *prism.Machine) error {
	w.bytes = 96 << 10
	w.loops = 24
	w.hot = 5
	b, err := m.Alloc("skew.data", uint64(w.bytes))
	w.base = b
	return err
}

func (w *skewWL) Run(ctx *prism.Ctx) {
	p := ctx.P
	chunk := w.bytes / ctx.N
	p.WriteRange(w.base+prism.VAddr(ctx.ID*chunk), chunk)
	p.Barrier(1)
	p.ReadRange(w.base, w.bytes) // everyone maps everything
	p.Barrier(2)

	ctx.BeginParallel()
	if ctx.P.Node().ID == mem.NodeID(w.hot) {
		for l := 0; l < w.loops; l++ {
			p.WriteRange(w.base, w.bytes)
			p.ReadRange(w.base, w.bytes)
		}
	}
	ctx.EndParallel()
}

func run(withDaemon bool) (prism.Results, int, error) {
	cfg := workloads.ConfigForSize(workloads.CISize)
	cfg.Policy = prism.MustPolicy("LANUMA") // CC-NUMA style: placement matters most
	m, err := prism.New(cfg)
	if err != nil {
		return prism.Results{}, 0, err
	}
	if withDaemon {
		prism.AttachMigration(m, 50_000, prism.DefaultMigrationPolicy)
	}
	res, err := m.Run(&skewWL{})
	if err != nil {
		return prism.Results{}, 0, err
	}
	return res, m.Reg.MigratedPages(), nil
}

// report runs the workload with fixed homes and with the migration
// daemon, and writes the comparison to w.
func report(w io.Writer) error {
	fixed, _, err := run(false)
	if err != nil {
		return err
	}
	migr, pages, err := run(true)
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "LA-NUMA (CC-NUMA-style) pages, hot node 5, homes round-robin:")
	fmt.Fprintf(w, "  fixed homes:    cycles=%-12d remote misses=%-8d\n", fixed.Cycles, fixed.RemoteMisses)
	fmt.Fprintf(w, "  with migration: cycles=%-12d remote misses=%-8d forwards=%d migrated pages=%d\n",
		migr.Cycles, migr.RemoteMisses, migr.Forwards, pages)
	if migr.Cycles < fixed.Cycles {
		fmt.Fprintf(w, "  speedup: %.2fx — the hot pages' homes moved to node 5, lazily.\n",
			float64(fixed.Cycles)/float64(migr.Cycles))
	} else {
		fmt.Fprintln(w, "  (no speedup at this scale — try more loops)")
	}
	return nil
}

func main() {
	if err := report(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

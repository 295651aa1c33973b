// Package benchsuite holds the in-process benchmarks, one body per
// row. `prismbench -bench` runs them through testing.Benchmark (and
// gates them against a committed baseline with -benchcheck);
// `go test -bench . ./internal/benchsuite/` runs the same bodies as
// BenchmarkLayer/<row> and BenchmarkMachine/<row>.
//
// A layer row times one hot-path operation of one simulator layer and
// must stay at 0 allocs/op. A machine row times one full mini-size
// simulation of a harness.Cell per iteration.
package benchsuite

import (
	"testing"

	"prism/internal/core"
	"prism/internal/directory"
	"prism/internal/harness"
	"prism/internal/mem"
	"prism/internal/pit"
	"prism/internal/sim"
)

// Bench is one named row.
type Bench struct {
	Name string
	Run  func(*testing.B)
}

// Layers are the layer rows, in print order.
var Layers = []Bench{
	{"EventQueue", eventQueue},
	{"CoroutineHandoff", coroutineHandoff},
	{"PITLookup", pitLookup},
	{"PITReverseHash", pitReverseHash},
	{"DirectoryAccess", directoryAccess},
	{"KernelPTEHit", kernelPTEHit},
}

// Machine is one machine row: the cell it runs. A capped policy's cell
// is sized (a SCOMA pass, as the sweep does) before the timer starts.
type Machine struct {
	Name string
	Cell harness.Cell
}

// Machines are the machine rows, in print order: a regular app, a
// paging one under an adaptive policy, a stencil, LA-NUMA, the
// lock-heavy water-nsq, and water-spa's event throughput.
var Machines = []Machine{
	{"MachineFFT", harness.Cell{App: "fft", Policy: "SCOMA", Size: "mini"}},
	{"MachineRadix", harness.Cell{App: "radix", Policy: "Dyn-LRU", Size: "mini"}},
	{"MachineOcean", harness.Cell{App: "ocean", Policy: "SCOMA", Size: "mini"}},
	{"MachineLU", harness.Cell{App: "lu", Policy: "LANUMA", Size: "mini"}},
	{"MachineWaterNsq", harness.Cell{App: "water-nsq", Policy: "SCOMA", Size: "mini"}},
	{"EngineEvents", harness.Cell{App: "water-spa", Policy: "SCOMA", Size: "mini"}},
}

// All is every row: the layers, then the machines.
func All() []Bench {
	rows := append([]Bench(nil), Layers...)
	for _, m := range Machines {
		rows = append(rows, Bench{m.Name, m.Run})
	}
	return rows
}

// Run times one simulation of the sized cell per iteration.
func (m Machine) Run(b *testing.B) {
	c, err := m.Cell.Sized(0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := harness.RunCell(c, "")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Refs), "refs/run")
	}
}

type nopEvent struct{}

func (nopEvent) OnEvent(sim.Time) {}

// eventQueue is one ScheduleEvent of a handler plus its dispatch, the
// shape of every event on the simulator's hot path.
func eventQueue(b *testing.B) {
	e := sim.NewEngine()
	var h nopEvent
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ScheduleEvent(sim.Time(i%64), h)
		if e.Pending() > 1024 {
			e.RunUntilIdle()
		}
	}
	e.RunUntilIdle()
}

// coroutineHandoff is one Step/Block round trip between the engine and
// a processor coroutine. The coroutine is stopped before the body
// returns, so no goroutine outlives it.
func coroutineHandoff(b *testing.B) {
	c := sim.NewCoro("bench")
	c.Start(func() {
		for {
			c.Block()
		}
	})
	c.Step() // run to the first Block
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Step()
	}
	b.StopTimer()
	c.Stop()
}

// pitTable builds a PIT holding 256 S-COMA client pages.
func pitTable() *pit.PIT {
	p := pit.New(0, mem.DefaultGeometry, pit.DefaultConfig)
	for i := 0; i < 256; i++ {
		p.Insert(mem.FrameID(i), pit.Entry{
			Mode:  pit.ModeSCOMA,
			GPage: mem.GPage{Seg: 1, Page: uint32(i)},
			Caps:  mem.AllNodes(),
		})
	}
	return p
}

// pitLookup is the forward translation behind every bus transaction.
func pitLookup(b *testing.B) {
	p := pitTable()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if e, _ := p.Lookup(mem.FrameID(i & 255)); e == nil {
			b.Fatal("missing PIT entry")
		}
	}
}

// pitReverseHash is a reverse translation with no frame guess, through
// the open-addressing reverse table.
func pitReverseHash(b *testing.B) {
	p := pitTable()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, _ := p.ReverseLookup(mem.GPage{Seg: 1, Page: uint32(i & 255)}, 0, false); !ok {
			b.Fatal("missing PIT reverse entry")
		}
	}
}

// directoryAccess is the home side's per-request line lookup.
func directoryAccess(b *testing.B) {
	d := directory.New(0, mem.DefaultGeometry, directory.DefaultConfig)
	const pages = 64
	for i := 0; i < pages; i++ {
		d.AddPage(mem.GPage{Seg: 1, Page: uint32(i)}, 0)
	}
	lpp := mem.DefaultGeometry.LinesPerPage()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if e, _, ok := d.Access(mem.GPage{Seg: 1, Page: uint32(i % pages)}, i%lpp); !ok || e == nil {
			b.Fatal("missing directory entry")
		}
	}
}

// kernelPTEHit is the fault path's page-table lookup on a software-TLB
// hit: node 0 of a mini machine faults in the first page of processor
// 0's private segment, then PTE is hammered.
func kernelPTEHit(b *testing.B) {
	cfg, err := harness.Cell{App: "fft", Policy: "SCOMA", Size: "mini"}.Config()
	if err != nil {
		b.Fatal(err)
	}
	m, err := core.NewMachine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	k := m.Nodes[0].Kern
	p0 := core.Ctx{ID: 0}
	vp := p0.PrivateBase().Page(cfg.Geometry)
	mapped := false
	k.HandleFault(vp, func(_ sim.Time, _ mem.FrameID, ok bool) { mapped = ok })
	m.E.RunUntilIdle()
	if !mapped {
		b.Fatal("private fault did not map the page")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := k.PTE(vp); !ok {
			b.Fatal("lost mapping")
		}
	}
}

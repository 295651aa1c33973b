package main

import (
	"flag"
	"fmt"
	"os"
	"testing"

	"prism"
	"prism/internal/cache"
	"prism/internal/directory"
	"prism/internal/fault"
	"prism/internal/mem"
	"prism/internal/network"
	"prism/internal/pit"
	"prism/internal/sim"
	"prism/workloads"
)

// probeTime is each probe's testing.Benchmark run length. Every probe
// is a nanosecond-scale operation, so this is millions of iterations.
const probeTime = "300ms"

// probes are testing.Benchmark runs on one layer's exported API; each
// reports ns per operation. They are the per-unit costs the traced
// attribution multiplies counts by.
var probes = []struct {
	name string
	fn   func(b *testing.B)
}{
	{"sim.event_ns", probeEvent},
	{"sim.handoff_ns", probeHandoff},
	{"cache.access_ns", probeCache},
	{"pit.lookup_ns", probePITLookup},
	{"pit.reverse_hash_ns", probePITReverseHash},
	{"directory.access_ns", probeDirectory},
	{"network.send_ns", func(b *testing.B) { probeSend(b, nil) }},
	{"network.transport_send_ns", func(b *testing.B) {
		// An armed plan whose rates never fire: every message takes the
		// recovery transport's path (envelope, ack, timer) undamaged.
		probeSend(b, &fault.Plan{Seed: 1, Default: fault.Rates{Delay: 1e-12}})
	}},
	{"kernel.pte_hit_ns", probePTEHit},
}

// runProbes runs every probe and returns ns/op by metric name.
func runProbes() map[string]float64 {
	testing.Init()
	if err := flag.Set("test.benchtime", probeTime); err != nil {
		panic(err) // the flag exists once testing.Init has run
	}
	out := map[string]float64{}
	for _, p := range probes {
		res := testing.Benchmark(p.fn)
		if res.N == 0 {
			fmt.Fprintf(os.Stderr, "bench: probe %s failed\n", p.name)
			continue
		}
		out[p.name] = float64(res.T.Nanoseconds()) / float64(res.N)
		fmt.Fprintf(os.Stderr, "bench: probe %s = %.2f ns/op (%d ops)\n", p.name, out[p.name], res.N)
	}
	return out
}

type nopEvent struct{}

func (nopEvent) OnEvent(sim.Time) {}

// probeEvent is one ScheduleEvent plus its dispatch.
func probeEvent(b *testing.B) {
	e := sim.NewEngine()
	var h nopEvent
	for i := 0; i < b.N; i++ {
		e.ScheduleEvent(sim.Time(i%64), h)
		if e.Pending() > 1024 {
			e.RunUntilIdle()
		}
	}
	e.RunUntilIdle()
}

// probeHandoff is one Step/Block round trip between the engine and a
// coroutine. The coroutine's goroutine ends before the probe returns.
func probeHandoff(b *testing.B) {
	c := sim.NewCoro("probe")
	stop := false
	c.Start(func() {
		for !stop {
			c.Block()
		}
	})
	c.Step() // run to the first Block
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Step()
	}
	b.StopTimer()
	stop = true
	c.Step()
}

// probeCache is one L1 Access that misses plus the Insert that fills
// the line, on the ci-size L1 geometry.
func probeCache(b *testing.B) {
	c := cache.New("probe", workloads.ConfigForSize(workloads.CISize).Node.L1)
	for i := 0; i < b.N; i++ {
		pa := mem.PAddr(i*64) & 0xFFFFF
		if c.Access(pa, false) == cache.Miss {
			c.Insert(pa, cache.Shared)
		}
	}
}

// probePIT builds a PIT holding 256 S-COMA client pages.
func probePIT() *pit.PIT {
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

// probePITLookup is the bus-side forward translation.
func probePITLookup(b *testing.B) {
	p := probePIT()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if e, _ := p.Lookup(mem.FrameID(i & 255)); e == nil {
			b.Fatal("missing PIT entry")
		}
	}
}

// probePITReverseHash is a reverse translation without a frame guess.
func probePITReverseHash(b *testing.B) {
	p := probePIT()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, _ := p.ReverseLookup(mem.GPage{Seg: 1, Page: uint32(i & 255)}, 0, false); !ok {
			b.Fatal("missing PIT reverse entry")
		}
	}
}

// probeDirectory is one home-side directory lookup.
func probeDirectory(b *testing.B) {
	d := directory.New(0, mem.DefaultGeometry, directory.DefaultConfig)
	const pages = 64
	for i := 0; i < pages; i++ {
		d.AddPage(mem.GPage{Seg: 1, Page: uint32(i)}, 0)
	}
	lpp := mem.DefaultGeometry.LinesPerPage()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if e, _, ok := d.Access(mem.GPage{Seg: 1, Page: uint32(i % pages)}, i%lpp); !ok || e == nil {
			b.Fatal("missing directory entry")
		}
	}
}

type nopHandler struct{}

func (nopHandler) Deliver(mem.NodeID, network.Message) {}

// probeSend is one Send plus its two-stage delivery (receive-NI event,
// then the handler) to a no-op handler, optionally through the recovery
// transport.
func probeSend(b *testing.B, plan *fault.Plan) {
	e := sim.NewEngine()
	n := network.New(e, 2, network.DefaultConfig)
	n.Attach(0, nopHandler{})
	n.Attach(1, nopHandler{})
	n.EnableFaults(plan)
	msg := struct{}{}
	for i := 0; i < b.N; i++ {
		n.Send(e.Now(), 0, 1, 72, msg)
		e.RunUntilIdle()
	}
}

// pteRef records the first reference processor 0 issues.
type pteRef struct {
	va  mem.VAddr
	set bool
}

func (t *pteRef) Ref(p mem.ProcID, va mem.VAddr, _ bool, _ sim.Time) {
	if p == 0 && !t.set {
		t.va, t.set = va, true
	}
}

// probePTEHit is the kernel's page-table lookup of a mapped page (a
// software-TLB hit). The page is one that a mini fft run faulted in on
// node 0.
func probePTEHit(b *testing.B) {
	m, err := prism.New(workloads.ConfigForSize(workloads.MiniSize))
	if err != nil {
		b.Fatal(err)
	}
	w, err := workloads.NewWorkload("fft", workloads.MiniSize, nil)
	if err != nil {
		b.Fatal(err)
	}
	var ref pteRef
	m.SetTracer(&ref)
	if _, err := m.Run(w); err != nil {
		b.Fatal(err)
	}
	k := m.Nodes[0].Kern
	vp := ref.va.Page(m.Cfg.Geometry)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := k.PTE(vp); !ok {
			b.Fatal("page not mapped")
		}
	}
}

package workloads

import (
	"fmt"

	"prism"
)

// Synth is a tunable synthetic workload for ablations and trace
// inspection: each processor mixes sequential scans of a private
// block, strided walks over a shared array, random accesses to a
// shared hot set, and periodic barriers. The knobs expose exactly the
// dimensions the page-mode trade-off depends on: working-set size,
// sharing degree, write fraction and locality.
type SynthConfig struct {
	// SharedBytes is the size of the block-distributed shared array.
	SharedBytes int
	// HotBytes is the size of the globally hot (all-to-all) region.
	HotBytes int
	// PrivateBytes is each processor's private working set.
	PrivateBytes int
	// WritePct is the percentage of accesses that are stores (0-100).
	WritePct int
	// RandomPct is the percentage of shared accesses that go to the
	// hot set at random (the rest scan the processor's own block).
	RandomPct int
	// Iters is the number of phases (barrier-separated).
	Iters int
	// OpsPerIter is the number of shared accesses per phase per proc.
	OpsPerIter int
	// ComputePerOp models processor work between references.
	ComputePerOp int
}

// DefaultSynthConfig is a balanced medium-pressure configuration.
func DefaultSynthConfig() SynthConfig {
	return SynthConfig{
		SharedBytes:  128 << 10,
		HotBytes:     8 << 10,
		PrivateBytes: 16 << 10,
		WritePct:     30,
		RandomPct:    25,
		Iters:        4,
		OpsPerIter:   2000,
		ComputePerOp: 4,
	}
}

// Synth is the workload; construct with NewSynth.
type Synth struct {
	cfg    SynthConfig
	shared prism.VAddr
	hot    prism.VAddr
}

// init registers synth with three of its knobs as app parameters
// (`synth:ops=5000;writes=40`); the rest keep DefaultSynthConfig.
func init() {
	Register(Descriptor{
		Name: "synth",
		Params: []Param{
			Count("ops", 2000),
			Percent("writes", 30, 0),
			Percent("random", 25, 0),
		},
		New: func(_ Size, a App) prism.Workload {
			cfg := DefaultSynthConfig()
			cfg.OpsPerIter, cfg.WritePct, cfg.RandomPct = a.Int("ops"), a.Int("writes"), a.Int("random")
			return NewSynth(cfg)
		},
	})
}

// validate returns a descriptive error for the first out-of-range
// field.
func (cfg SynthConfig) validate() error {
	switch {
	case cfg.SharedBytes <= 0:
		return fmt.Errorf("workloads: synth SharedBytes must be positive, got %d", cfg.SharedBytes)
	case cfg.Iters <= 0:
		return fmt.Errorf("workloads: synth Iters must be positive, got %d", cfg.Iters)
	case cfg.OpsPerIter <= 0:
		return fmt.Errorf("workloads: synth OpsPerIter must be positive, got %d", cfg.OpsPerIter)
	case cfg.WritePct < 0 || cfg.WritePct > 100:
		return fmt.Errorf("workloads: synth WritePct must be in [0,100], got %d", cfg.WritePct)
	case cfg.RandomPct < 0 || cfg.RandomPct > 100:
		return fmt.Errorf("workloads: synth RandomPct must be in [0,100], got %d", cfg.RandomPct)
	}
	return nil
}

// NewSynth builds a synthetic workload. It panics on an out-of-range
// configuration; the registered synth's parameters are range-checked
// before they get here.
func NewSynth(cfg SynthConfig) *Synth {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	return &Synth{cfg: cfg}
}

// Name implements prism.Workload.
func (w *Synth) Name() string { return "synth" }

// Setup implements prism.Workload.
func (w *Synth) Setup(m *prism.Machine) error {
	var err error
	if w.shared, err = m.Alloc("synth.shared", uint64(w.cfg.SharedBytes)); err != nil {
		return err
	}
	if w.cfg.HotBytes > 0 {
		if w.hot, err = m.Alloc("synth.hot", uint64(w.cfg.HotBytes)); err != nil {
			return err
		}
	}
	return nil
}

// Run implements prism.Workload.
func (w *Synth) Run(ctx *prism.Ctx) {
	p := ctx.P
	c := w.cfg
	r := rng("synth", ctx.ID)
	lo, hi := blockRange(ctx.ID, ctx.N, c.SharedBytes/64)

	// First-touch own block and private region.
	p.WriteRange(w.shared+prism.VAddr(lo*64), (hi-lo)*64)
	if c.PrivateBytes > 0 {
		p.WriteRange(ctx.PrivateBase(), c.PrivateBytes)
	}
	p.Barrier(9)

	ctx.BeginParallel()
	cursor := lo
	for it := 0; it < c.Iters; it++ {
		for op := 0; op < c.OpsPerIter; op++ {
			write := r.Intn(100) < c.WritePct
			var addr prism.VAddr
			if c.HotBytes > 0 && r.Intn(100) < c.RandomPct {
				addr = w.hot + prism.VAddr(r.Intn(c.HotBytes/64)*64)
			} else {
				addr = w.shared + prism.VAddr(cursor*64)
				cursor++
				if cursor >= hi {
					cursor = lo
				}
			}
			if write {
				p.Write(addr)
			} else {
				p.Read(addr)
			}
			if c.ComputePerOp > 0 {
				p.Compute(prism.Time(c.ComputePerOp))
			}
		}
		// Private mixing keeps Local-mode frames in play.
		if c.PrivateBytes > 0 {
			p.ReadRange(ctx.PrivateBase(), c.PrivateBytes/4)
		}
		p.Barrier(1)
	}
	ctx.EndParallel()
}

// Package workloads reimplements the eight SPLASH-I/II applications of
// the paper's Table 2 as execution-driven workloads for the PRISM
// simulator: Barnes, FFT, LU, MP3D, Ocean, Radix, Water-Nsq and
// Water-Spa.
//
// Each workload runs the real algorithm on host memory (the functional
// half of execution-driven simulation, as Augmint did) while issuing
// the corresponding loads and stores to the simulated machine. Two
// conventions keep host cost proportional to simulated cost:
//
//   - Irregular accesses (hash scatters, pointer chasing, particle
//     moves) issue one simulated reference per touched element.
//   - Dense sequential scans issue one simulated reference per cache
//     line plus Compute cycles for the arithmetic — the intra-line
//     accesses they replace would be L1 hits, so timing and miss
//     behaviour are preserved.
//
// Every workload ends its setup with BeginParallel and measures only
// the parallel phase, matching §4.1.
package workloads

import (
	"fmt"
	"math/rand"
	"strings"

	"prism"
	"prism/internal/core"
	"prism/internal/mem"
)

// Size selects a data-set scale.
type Size int

// Size classes. PaperSize matches Table 2; CISize is roughly a
// quarter-scale configuration for routine runs (pair it with
// quarter-scale caches — see ConfigForSize); MiniSize is for tests.
// DC64Size and DC128Size are the datacenter-scale classes: 64- and
// 128-node machines for the traffic-shaped workloads, far past the
// paper's 8 nodes.
const (
	MiniSize Size = iota
	CISize
	PaperSize
	DC64Size
	DC128Size
)

// sizeOrder lists every size in ascending scale order — the single
// source for SizeNames, ParseSize and descriptor size filters.
var sizeOrder = []Size{MiniSize, CISize, PaperSize, DC64Size, DC128Size}

// PaperSizes are the classes the SPLASH kernels are engineered for
// (their data sets scale with the paper's 32-processor machine).
var PaperSizes = []Size{MiniSize, CISize, PaperSize}

func (s Size) String() string {
	switch s {
	case MiniSize:
		return "mini"
	case CISize:
		return "ci"
	case PaperSize:
		return "paper"
	case DC64Size:
		return "dc64"
	case DC128Size:
		return "dc128"
	}
	return fmt.Sprintf("Size(%d)", int(s))
}

// Sizes returns every size class in ascending scale order.
func Sizes() []Size { return append([]Size(nil), sizeOrder...) }

// SizeNames returns the valid size spellings in ascending scale order.
func SizeNames() []string {
	out := make([]string, len(sizeOrder))
	for i, s := range sizeOrder {
		out[i] = s.String()
	}
	return out
}

// ParseSize maps a size name to its Size. The error wraps
// ErrUnknownSize and names every valid size, so a mistyped flag is
// self-explanatory.
func ParseSize(name string) (Size, error) {
	for _, s := range sizeOrder {
		if name == s.String() {
			return s, nil
		}
	}
	return 0, fmt.Errorf("%w %q (valid sizes: %s)", ErrUnknownSize, name, strings.Join(SizeNames(), ", "))
}

// ConfigForSize returns a machine configuration whose cache sizes are
// scaled to keep the workload's working set in the same capacity
// regime the paper engineered (8KB L1 / 32KB L2 against Table 2 data
// sets; see §4.2's discussion of why the caches are small). The
// datacenter classes keep the small test caches but widen the machine
// itself: 64 or 128 nodes of two processors, with node memory shrunk
// so page-cache policies feel real pressure at traffic-workload
// footprints.
func ConfigForSize(s Size) prism.Config {
	cfg := core.DefaultConfig()
	switch s {
	case PaperSize:
		cfg.Node.L1.Size = 8 << 10
		cfg.Node.L2.Size = 32 << 10
	case CISize:
		cfg.Node.L1.Size = 2 << 10
		cfg.Node.L2.Size = 8 << 10
	case MiniSize:
		cfg.Node.L1.Size = 1 << 10
		cfg.Node.L2.Size = 4 << 10
	case DC64Size, DC128Size:
		cfg.Nodes = 64
		if s == DC128Size {
			cfg.Nodes = 128
		}
		cfg.Node.Procs = 2
		cfg.Node.L1.Size = 1 << 10
		cfg.Node.L2.Size = 4 << 10
		cfg.Kernel.RealFrames = 8 << 10
	}
	return cfg
}

// init registers the eight SPLASH kernels of Table 2, in the paper's
// order. The other workloads register in their own files.
func init() {
	Register(Descriptor{Name: "barnes", Paper: true, Sizes: PaperSizes,
		New: func(s Size, _ App) prism.Workload { return NewBarnes(s) }})
	Register(Descriptor{Name: "fft", Paper: true, Sizes: PaperSizes,
		New: func(s Size, _ App) prism.Workload { return NewFFT(s) }})
	Register(Descriptor{Name: "lu", Paper: true, Sizes: PaperSizes,
		New: func(s Size, _ App) prism.Workload { return NewLU(s) }})
	Register(Descriptor{Name: "mp3d", Paper: true, Sizes: PaperSizes,
		New: func(s Size, _ App) prism.Workload { return NewMP3D(s) }})
	Register(Descriptor{Name: "ocean", Paper: true, Sizes: PaperSizes,
		New: func(s Size, _ App) prism.Workload { return NewOcean(s) }})
	Register(Descriptor{Name: "radix", Paper: true, Sizes: PaperSizes,
		New: func(s Size, _ App) prism.Workload { return NewRadix(s) }})
	Register(Descriptor{Name: "water-nsq", Aliases: []string{"waternsq"}, Paper: true, Sizes: PaperSizes,
		New: func(s Size, _ App) prism.Workload { return NewWaterNsq(s) }})
	Register(Descriptor{Name: "water-spa", Aliases: []string{"waterspa"}, Paper: true, Sizes: PaperSizes,
		New: func(s Size, _ App) prism.Workload { return NewWaterSpa(s) }})
}

// Names lists the paper's workloads in Table 2 order — the default
// sweep set. AllNames includes the other registered workloads.
func Names() []string {
	var out []string
	for _, d := range regOrder {
		if d.Paper {
			out = append(out, d.Name)
		}
	}
	return out
}

// AllNames lists every registered workload in registration order.
func AllNames() []string {
	var out []string
	for _, d := range regOrder {
		out = append(out, d.Name)
	}
	return out
}

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

// f64 returns the address of element i of a float64 array at base.
func f64(base prism.VAddr, i int) prism.VAddr {
	return base + prism.VAddr(i*8)
}

// i32 returns the address of element i of an int32 array at base.
func i32(base prism.VAddr, i int) prism.VAddr {
	return base + prism.VAddr(i*4)
}

// c128 returns the address of complex element i (16 bytes) at base.
func c128(base prism.VAddr, i int) prism.VAddr {
	return base + prism.VAddr(i*16)
}

// blockRange splits n items across total workers, returning worker
// id's half-open range.
func blockRange(id, total, n int) (lo, hi int) {
	per := n / total
	rem := n % total
	lo = id*per + min(id, rem)
	hi = lo + per
	if id < rem {
		hi++
	}
	return lo, hi
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// rng returns a deterministic per-processor random source.
func rng(name string, procID int) *rand.Rand {
	var seed int64 = 0x5851f42d
	for _, c := range name {
		seed = seed*131 + int64(c)
	}
	return rand.New(rand.NewSource(seed + int64(procID)*0x9e3779b9))
}

// vaddr converts for internal helpers (prism.VAddr is mem.VAddr).
var _ = mem.VAddr(0)

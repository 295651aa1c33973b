// Package mem defines the three address spaces of a PRISM machine and
// the page/line geometry shared by every other package.
//
// PRISM (HPCA '98, §3.3) distinguishes:
//
//   - Virtual addresses: VSID | page number | offset. Node-private;
//     each kernel manages its own virtual→physical translations.
//   - Global addresses: GSID | page number | offset. The system-wide
//     namespace for shared data. Crucially, a global address does NOT
//     encode the location of its home node — that indirection is what
//     enables lazy page migration.
//   - Physical addresses: frame number | offset. Strictly node-local;
//     a physical address never addresses remote memory directly, which
//     is the fault-containment boundary.
package mem

import (
	"fmt"
	"math/bits"
)

// Geometry describes page and cache-line sizes. Both must be powers of
// two and a page must hold a whole number of lines.
type Geometry struct {
	PageSize int // bytes per page (paper: 4096)
	LineSize int // bytes per cache line (64)
}

// DefaultGeometry matches the paper's simulated machine.
var DefaultGeometry = Geometry{PageSize: 4096, LineSize: 64}

// Validate reports whether the geometry is usable.
func (g Geometry) Validate() error {
	if g.PageSize <= 0 || g.PageSize&(g.PageSize-1) != 0 {
		return fmt.Errorf("mem: page size %d is not a positive power of two", g.PageSize)
	}
	if g.LineSize <= 0 || g.LineSize&(g.LineSize-1) != 0 {
		return fmt.Errorf("mem: line size %d is not a positive power of two", g.LineSize)
	}
	if g.PageSize%g.LineSize != 0 {
		return fmt.Errorf("mem: page size %d not a multiple of line size %d", g.PageSize, g.LineSize)
	}
	return nil
}

// LinesPerPage returns the number of cache lines in one page.
func (g Geometry) LinesPerPage() int { return g.PageSize / g.LineSize }

// PageShift returns log2(PageSize) (PageSize is a power of two).
func (g Geometry) PageShift() uint { return uint(bits.TrailingZeros(uint(g.PageSize))) }

// LineShift returns log2(LineSize) (LineSize is a power of two).
func (g Geometry) LineShift() uint { return uint(bits.TrailingZeros(uint(g.LineSize))) }

// MaxNodes bounds the machine's node count. It sizes the fixed-width
// node bitmaps (directory sharer sets) and is what core.Config.Validate
// enforces; the paper stops at 8 nodes, the reproduction runs
// datacenter-scale sweeps up to 256.
const MaxNodes = 256

// NodeID identifies a node (kernel + controller + memory + processors).
type NodeID int

// ProcID identifies a processor globally (0..nodes*procsPerNode-1).
type ProcID int

// VAddr is a virtual address: VSID in the high bits, then page number,
// then offset. The packing below gives 16-bit VSIDs, 28-bit page
// numbers and byte offsets — far more than the simulation needs.
type VAddr uint64

const (
	vsidShift = 40
	pageBits  = 28
)

// VSID is a virtual segment identifier.
type VSID uint16

// NewVAddr assembles a virtual address from its components.
// offset is a byte offset within the segment (it may span many pages).
func NewVAddr(s VSID, offset uint64) VAddr {
	return VAddr(uint64(s)<<vsidShift | offset)
}

// VSID extracts the virtual segment identifier.
func (a VAddr) VSID() VSID { return VSID(a >> vsidShift) }

// Offset extracts the byte offset within the segment.
func (a VAddr) Offset() uint64 { return uint64(a) & (1<<vsidShift - 1) }

// VPage is a virtual page identity: (VSID, page number within segment).
type VPage struct {
	Seg  VSID
	Page uint32
}

func (p VPage) String() string { return fmt.Sprintf("vpage[%d:%d]", p.Seg, p.Page) }

// Key packs p into a nonzero integer, so flat translation tables can
// use 0 to mark an empty slot. VPageFromKey inverts it.
func (p VPage) Key() uint64 { return (uint64(p.Seg)<<32 | uint64(p.Page)) + 1 }

// VPageFromKey unpacks a nonzero VPage.Key.
func VPageFromKey(k uint64) VPage { return VPage{Seg: VSID((k - 1) >> 32), Page: uint32(k - 1)} }

// Page returns the virtual page containing a, given geometry g.
func (a VAddr) Page(g Geometry) VPage {
	return VPage{Seg: a.VSID(), Page: uint32(a.Offset() >> g.PageShift())}
}

// PageOffset returns the byte offset within a's page.
func (a VAddr) PageOffset(g Geometry) int {
	return int(a.Offset() & uint64(g.PageSize-1))
}

func (a VAddr) String() string {
	return fmt.Sprintf("v[%d:%#x]", a.VSID(), a.Offset())
}

// GAddr is a global address: GSID | page number | offset. Global
// addresses deliberately carry no home-node field.
type GAddr uint64

// GSID is a global segment identifier, allocated by the IPC server.
type GSID uint16

// NewGAddr assembles a global address.
func NewGAddr(s GSID, offset uint64) GAddr {
	return GAddr(uint64(s)<<vsidShift | offset)
}

// GSID extracts the global segment identifier.
func (a GAddr) GSID() GSID { return GSID(a >> vsidShift) }

// Offset extracts the byte offset within the global segment.
func (a GAddr) Offset() uint64 { return uint64(a) & (1<<vsidShift - 1) }

// GPage is a global page identity: (GSID, page number within segment).
type GPage struct {
	Seg  GSID
	Page uint32
}

// Page returns the global page containing a.
func (a GAddr) Page(g Geometry) GPage {
	return GPage{Seg: a.GSID(), Page: uint32(a.Offset() >> g.PageShift())}
}

// Line returns the index of the cache line within a's page.
func (a GAddr) Line(g Geometry) int {
	return int(a.Offset()&uint64(g.PageSize-1)) >> g.LineShift()
}

// Addr reassembles the global address of byte offset off within page p.
func (p GPage) Addr(g Geometry, off int) GAddr {
	return NewGAddr(p.Seg, uint64(p.Page)<<g.PageShift()|uint64(off))
}

func (a GAddr) String() string {
	return fmt.Sprintf("g[%d:%#x]", a.GSID(), a.Offset())
}

func (p GPage) String() string { return fmt.Sprintf("gpage[%d:%d]", p.Seg, p.Page) }

// PAddr is a node-local physical address: frame number | offset.
type PAddr uint64

// FrameID is a physical page frame number, local to one node.
type FrameID uint32

// NewPAddr assembles a physical address.
func NewPAddr(g Geometry, f FrameID, off int) PAddr {
	return PAddr(uint64(f)<<g.PageShift() | uint64(off))
}

// Frame extracts the frame number.
func (a PAddr) Frame(g Geometry) FrameID { return FrameID(uint64(a) >> g.PageShift()) }

// PageOffset extracts the byte offset within the frame.
func (a PAddr) PageOffset(g Geometry) int { return int(uint64(a) & uint64(g.PageSize-1)) }

// Line returns the cache-line index within the frame.
func (a PAddr) Line(g Geometry) int {
	return a.PageOffset(g) >> g.LineShift()
}

// LineAddr returns the address of the start of a's cache line.
func (a PAddr) LineAddr(g Geometry) PAddr {
	return a &^ PAddr(g.LineSize-1)
}

func (a PAddr) String() string { return fmt.Sprintf("p[%#x]", uint64(a)) }

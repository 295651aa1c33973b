package mem

import (
	"testing"
	"testing/quick"
)

func TestGeometryValidate(t *testing.T) {
	cases := []struct {
		g  Geometry
		ok bool
	}{
		{Geometry{4096, 64}, true},
		{Geometry{4096, 128}, true},
		{Geometry{0, 64}, false},
		{Geometry{4096, 0}, false},
		{Geometry{4096, 48}, false},
		{Geometry{3000, 64}, false},
		{Geometry{64, 128}, false}, // page smaller than line
		{Geometry{1 << 16, 1}, true},
		{Geometry{1 << 17, 1}, false}, // more lines than a packed key holds
	}
	for _, c := range cases {
		if err := c.g.Validate(); (err == nil) != c.ok {
			t.Errorf("Validate(%+v) = %v, want ok=%v", c.g, err, c.ok)
		}
	}
}

func TestGeometryDerived(t *testing.T) {
	g := DefaultGeometry
	if g.LinesPerPage() != 64 {
		t.Errorf("LinesPerPage = %d, want 64", g.LinesPerPage())
	}
	if g.PageShift() != 12 || g.LineShift() != 6 {
		t.Errorf("shifts %d/%d, want 12/6", g.PageShift(), g.LineShift())
	}
}

func TestVAddrRoundTrip(t *testing.T) {
	f := func(s uint16, off uint64) bool {
		off &= 1<<40 - 1
		a := NewVAddr(VSID(s), off)
		return a.VSID() == VSID(s) && a.Offset() == off
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGAddrRoundTrip(t *testing.T) {
	f := func(s uint16, off uint64) bool {
		off &= 1<<40 - 1
		a := NewGAddr(GSID(s), off)
		return a.GSID() == GSID(s) && a.Offset() == off
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPAddrRoundTrip(t *testing.T) {
	g := DefaultGeometry
	f := func(fr uint32, off uint16) bool {
		o := int(off) % g.PageSize
		a := NewPAddr(g, FrameID(fr), o)
		return a.Frame(g) == FrameID(fr) && a.PageOffset(g) == o
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPageExtraction(t *testing.T) {
	g := DefaultGeometry
	a := NewVAddr(7, 3*4096+100)
	p := a.Page(g)
	if p.Seg != 7 || p.Page != 3 {
		t.Errorf("page %+v, want {7 3}", p)
	}
	if a.PageOffset(g) != 100 {
		t.Errorf("offset %d, want 100", a.PageOffset(g))
	}
}

func TestGPageAddr(t *testing.T) {
	g := DefaultGeometry
	p := GPage{Seg: 2, Page: 5}
	a := p.Addr(g, 130)
	if a.Page(g) != p {
		t.Errorf("round trip page %v", a.Page(g))
	}
	if a.Line(g) != 2 { // 130/64 = 2
		t.Errorf("line %d, want 2", a.Line(g))
	}
}

func TestLineAddrAlignment(t *testing.T) {
	g := DefaultGeometry
	a := NewPAddr(g, 9, 200)
	la := a.LineAddr(g)
	if la.PageOffset(g) != 192 {
		t.Errorf("line addr offset %d, want 192", la.PageOffset(g))
	}
	if la.Frame(g) != 9 {
		t.Errorf("line addr frame %d, want 9", la.Frame(g))
	}
	// Property: line addresses are fixed points of LineAddr.
	f := func(fr uint32, off uint16) bool {
		a := NewPAddr(g, FrameID(fr), int(off)%g.PageSize)
		return a.LineAddr(g).LineAddr(g) == a.LineAddr(g)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLineIndexWithinPage(t *testing.T) {
	g := DefaultGeometry
	for off := 0; off < g.PageSize; off += g.LineSize {
		a := NewPAddr(g, 1, off)
		if a.Line(g) != off/g.LineSize {
			t.Fatalf("line(%d) = %d", off, a.Line(g))
		}
	}
}

func TestStringers(t *testing.T) {
	g := DefaultGeometry
	if s := NewVAddr(1, 0x10).String(); s == "" {
		t.Error("empty VAddr string")
	}
	if s := NewGAddr(1, 0x10).String(); s == "" {
		t.Error("empty GAddr string")
	}
	if s := NewPAddr(g, 1, 0).String(); s == "" {
		t.Error("empty PAddr string")
	}
	if s := (GPage{1, 2}).String(); s == "" {
		t.Error("empty GPage string")
	}
}

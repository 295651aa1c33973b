package main

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"time"

	"prism"
	"prism/internal/mem"
	"prism/internal/network"
	"prism/internal/node"
	"prism/internal/sim"
)

// spanKey identifies a class of delivery span: the layer that handled
// the message and the message's type.
type spanKey struct {
	layer string // "coherence" or "kernel"
	typ   reflect.Type
}

type spanStat struct {
	n, nested uint64
	dur       time.Duration
	refs      uint64 // workload references issued inside the spans
}

// tracer times every message delivery of one machine and counts the
// machine's workload references. Deliveries run in engine context and
// references on the processors' coroutines, which hand off strictly
// (exactly one runs at a time), so the counters need no locking.
type tracer struct {
	refs  uint64
	spans map[spanKey]*spanStat
}

// Ref implements node.Tracer.
func (t *tracer) Ref(mem.ProcID, mem.VAddr, bool, sim.Time) { t.refs++ }

// tracedNode replaces a node's network handler. It routes a message the
// way node.Deliver does, timing the controller or kernel call as a
// span. A fault completion steps the faulting processor's coroutine
// synchronously, so a span that saw references ran workload code and is
// counted as nested: its time includes work the count-based terms
// of the attribution also cover.
type tracedNode struct {
	n *node.Node
	t *tracer
}

// Deliver implements network.Handler.
func (h tracedNode) Deliver(src mem.NodeID, msg network.Message) {
	refs := h.t.refs
	start := time.Now()
	if h.n.Ctrl.Deliver(src, msg) {
		h.t.span("coherence", msg, start, refs)
		return
	}
	start = time.Now()
	if h.n.Kern.Deliver(src, msg) {
		h.t.span("kernel", msg, start, refs)
		return
	}
	panic(fmt.Sprintf("node %d: unroutable message %T from %d", h.n.ID, msg, src))
}

func (t *tracer) span(layer string, msg network.Message, start time.Time, refsBefore uint64) {
	d := time.Since(start)
	k := spanKey{layer, reflect.TypeOf(msg)}
	s := t.spans[k]
	if s == nil {
		s = &spanStat{}
		t.spans[k] = s
	}
	s.n++
	s.dur += d
	if inside := t.refs - refsBefore; inside > 0 {
		s.nested++
		s.refs += inside
	}
}

// traceMachine installs the delivery spans and the reference counter on
// a built machine, before Run. Both only observe: results and metrics
// exports stay byte-identical (TestTracingIsPureObservation).
func traceMachine(m *prism.Machine) *tracer {
	t := &tracer{spans: map[spanKey]*spanStat{}}
	for _, n := range m.Nodes {
		m.Net.Attach(n.ID, tracedNode{n, t})
	}
	m.SetTracer(t)
	return t
}

func (s *spanStat) add(o spanStat) {
	s.n += o.n
	s.nested += o.nested
	s.dur += o.dur
	s.refs += o.refs
}

// layerSpans sums one layer's spans.
func (t *tracer) layerSpans(layer string) (s spanStat) {
	for k, v := range t.spans {
		if k.layer == layer {
			s.add(*v)
		}
	}
	return s
}

// spanRow is one message type's spans in a result file.
type spanRow struct {
	Layer  string  `json:"layer"`
	Type   string  `json:"type"`
	N      uint64  `json:"n"`
	Nested uint64  `json:"nested"`
	S      float64 `json:"s"`
}

func (t *tracer) rows() []spanRow {
	var out []spanRow
	for k, v := range t.spans {
		out = append(out, spanRow{k.layer, k.typ.String(), v.n, v.nested, v.dur.Seconds()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].S > out[j].S })
	return out
}

// counters sums a metrics export's counters over nodes, keyed by
// "component/name".
type counters map[string]float64

func (c counters) add(component, name, kind string, v uint64) {
	if kind == "counter" {
		c[component+"/"+name] += float64(v)
	}
}

// prefixed sums every counter of a component whose name has the prefix
// and suffix.
func (c counters) prefixed(component, prefix, suffix string) float64 {
	var s float64
	for k, v := range c {
		comp, name, _ := strings.Cut(k, "/")
		if comp == component && strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix) {
			s += v
		}
	}
	return s
}

// layerCounts maps an export's counters onto the per-layer count
// metrics.
func layerCounts(c counters) map[string]float64 {
	out := map[string]float64{
		"cache.l1_accesses":       c["cache/l1_reads"] + c["cache/l1_writes"],
		"cache.l2_accesses":       c["cache/l2_reads"] + c["cache/l2_writes"],
		"node.bus_txns":           c["proc/l2_misses"],
		"node.bus_wait_cycles":    c["bus/addr_bus_wait_cycles"] + c["bus/data_bus_wait_cycles"],
		"coherence.msgs":          c.prefixed("coherence", "msg_", ""),
		"coherence.remote_misses": c["coherence/remote_misses"],
		"pit.lookups":             c["pit/lookups"],
		"pit.reverse_hash":        c["pit/reverse_hash"],
		"directory.accesses":      c["directory/accesses"],
		"directory.cache_misses":  c["directory/cache_misses"],
		"network.messages":        c["network/messages"],
		"network.bytes":           c["network/bytes"],
		"network.retransmits":     c.prefixed("fault", "", "_retransmits"),
		"kernel.faults":           c["kernel/faults"],
		"kernel.page_outs":        c["kernel/client_page_outs"],
		"kernel.conversions":      c["kernel/conversions"],
		"kernel.tlb_misses":       c["proc/tlb_misses"], // each one a kernel page-table walk
	}
	out["sim.est_events"] = 2*out["network.messages"] + 2*out["node.bus_txns"]
	return out
}

// term is one addend of an attribution: a measured span total, or a
// count times the probe cost of one unit of that work.
type term struct {
	Layer string  `json:"layer"`
	Work  string  `json:"work"`
	Count float64 `json:"count"`
	NsPer float64 `json:"ns_per"`
	S     float64 `json:"s"`
}

// attribution splits one traced cell's host wall time across layers.
type attribution struct {
	Cell          string    `json:"cell"`
	WallS         float64   `json:"wall_s"`
	Terms         []term    `json:"terms"`
	ExplainedS    float64   `json:"explained_s"`
	ExplainedFrac float64   `json:"explained_frac"`
	ResidualS     float64   `json:"residual_s"`
	Spans         []spanRow `json:"spans"`
}

// attribute explains a traced cell's wall time as its measured delivery
// spans plus, for the work outside deliveries, count × probe cost. Work
// done inside nested spans is already in the span time, so it is taken
// out of the count terms: each nested span holds one coroutine handoff,
// and the cache accesses of the references issued inside spans.
func attribute(cellName string, wall float64, t *tracer, c counters, probes map[string]float64) attribution {
	coh, kern := t.layerSpans("coherence"), t.layerSpans("kernel")
	nested := float64(coh.nested + kern.nested)
	outside := 1.0
	if t.refs > 0 {
		outside = 1 - float64(coh.refs+kern.refs)/float64(t.refs)
	}
	lc := layerCounts(c)
	count := func(layer, work string, n float64, probe string) term {
		return term{layer, work, n, probes[probe], n * probes[probe] / 1e9}
	}
	span := func(layer string, s spanStat) term {
		ns := 0.0
		if s.n > 0 {
			ns = float64(s.dur.Nanoseconds()) / float64(s.n)
		}
		return term{layer, "deliveries (measured spans)", float64(s.n), ns, s.dur.Seconds()}
	}
	a := attribution{Cell: cellName, WallS: wall, Spans: t.rows()}
	a.Terms = []term{
		span("coherence", coh),
		span("kernel", kern),
		count("cache", "L1+L2 accesses outside spans",
			(lc["cache.l1_accesses"]+lc["cache.l2_accesses"])*outside, "cache.access_ns"),
		count("sim", "coroutine handoffs outside spans (bus txns + faults + sync ops - nested)",
			c["proc/l2_misses"]+c["proc/page_faults"]+c["proc/sync_ops"]-nested, "sim.handoff_ns"),
		count("sim", "events (2 x messages + 2 x bus txns)", lc["sim.est_events"], "sim.event_ns"),
		count("pit", "bus-side lookups (lookups - reverse lookups)",
			c["pit/lookups"]-c["pit/reverse_guess"]-c["pit/reverse_hash"], "pit.lookup_ns"),
		count("kernel", "page-table walks (processor TLB misses)", lc["kernel.tlb_misses"], "kernel.pte_hit_ns"),
	}
	for _, tm := range a.Terms {
		a.ExplainedS += tm.S
	}
	a.ExplainedFrac = a.ExplainedS / wall
	a.ResidualS = wall - a.ExplainedS
	return a
}

// table renders an attribution as a markdown layer table.
func (a attribution) table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Layer table for %s (traced wall %.3f s)\n\n", a.Cell, a.WallS)
	b.WriteString("| layer | work | count | ns each | seconds | share of wall |\n|---|---|---:|---:|---:|---:|\n")
	for _, t := range a.Terms {
		fmt.Fprintf(&b, "| %s | %s | %.0f | %.1f | %.3f | %.1f%% |\n", t.Layer, t.Work, t.Count, t.NsPer, t.S, 100*t.S/a.WallS)
	}
	fmt.Fprintf(&b, "| **explained** | | | | %.3f | %.1f%% |\n", a.ExplainedS, 100*a.ExplainedFrac)
	fmt.Fprintf(&b, "| **residual** | | | | %.3f | %.1f%% |\n", a.ResidualS, 100*a.ResidualS/a.WallS)
	return b.String()
}

// traced runs every cell once with tracing on, checks its results
// against the untraced ones and attributes its wall time.
func (c *cellsInstance) traced(r *run, probes map[string]float64) error {
	var wall, explained, residual float64
	var coh, kern spanStat
	for _, cl := range c.cells {
		m, w, err := c.build(cl)
		if err != nil {
			return err
		}
		t := traceMachine(m)
		start := time.Now()
		res, err := m.Run(w)
		cellWall := time.Since(start).Seconds()
		c.verify(r, cl, res, err)
		cnt := counters{}
		for _, p := range m.ExportMetrics(cl.app, cl.policy).Points {
			cnt.add(p.Component, p.Name, p.Kind, p.Value)
		}
		for k, v := range layerCounts(cnt) {
			r.layers[k] += v
		}
		a := attribute(cl.String(), cellWall, t, cnt, probes)
		r.attr = append(r.attr, a)
		wall += cellWall
		explained += a.ExplainedS
		residual += a.ResidualS
		coh.add(t.layerSpans("coherence"))
		kern.add(t.layerSpans("kernel"))
	}
	r.layers["coherence.deliver_s"] = coh.dur.Seconds()
	r.layers["coherence.deliver_nested"] = float64(coh.nested)
	if coh.n > 0 {
		r.layers["coherence.deliver_ns"] = float64(coh.dur.Nanoseconds()) / float64(coh.n)
	}
	r.layers["kernel.deliver_s"] = kern.dur.Seconds()
	r.layers["kernel.deliver_nested"] = float64(kern.nested)
	r.layers["attr.explained_frac"] = explained / wall
	r.layers["attr.residual_s"] = residual
	r.layers["trace.overhead_frac"] = wall/r.value("host.wall_s") - 1
	return nil
}

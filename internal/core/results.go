package core

import (
	"fmt"

	"prism/internal/metrics"
	"prism/internal/sim"
)

// Results aggregates one run's measurements. Cycle counts cover the
// measured parallel phase; frame accounting covers the whole run
// (matching how the paper reports Table 3 versus Tables 4/5).
type Results struct {
	Workload string
	Policy   string

	// Cycles is the parallel-phase execution time.
	Cycles sim.Time

	// Table 4/5 statistics.
	RemoteMisses   uint64
	ClientPageOuts uint64

	// Table 3 statistics.
	RealFrames  uint64 // real page frames allocated (private + home + client S-COMA)
	ImagFrames  uint64 // imaginary (LA-NUMA) frames allocated
	Utilization float64

	// Supporting detail.
	Upgrades       uint64
	WritebacksSent uint64
	InvsSent       uint64
	Forwards       uint64
	PageInMsgs     uint64
	FlagHits       uint64
	Conversions    uint64
	ReverseConvs   uint64
	TLBMisses      uint64
	PageFaults     uint64
	Refs           uint64
	L1Misses       uint64
	L2Misses       uint64
	NetMessages    uint64
	NetBytes       uint64
	PITGuessHits   uint64
	PITHashLookups uint64
	DirCacheHits   uint64
	DirCacheMisses uint64

	// MaxClientFrames is each node's high-water client S-COMA frame
	// count — the input to SCOMA-70's page-cache sizing.
	MaxClientFrames []int
}

// collect gathers results after a run.
func (m *Machine) collect(w Workload) Results {
	r := Results{
		Workload: w.Name(),
		Policy:   m.Cfg.Policy.Name(),
		Cycles:   m.phaseEnd - m.phaseStart,
	}
	for _, p := range m.Procs {
		r.Refs += p.Stats.Refs()
		r.L1Misses += p.Stats.L1Misses
		r.L2Misses += p.Stats.L2Misses
		r.TLBMisses += p.Stats.TLBMisses
		r.PageFaults += p.Stats.PageFaults
	}
	var utilSum float64
	var utilN int
	for _, n := range m.Nodes {
		cs := &n.Ctrl.Stats
		r.RemoteMisses += cs.RemoteMisses
		r.Upgrades += cs.Upgrades
		r.WritebacksSent += cs.WritebacksSent
		r.InvsSent += cs.InvsSent
		r.Forwards += cs.Forwards
		r.PITGuessHits += n.Ctrl.PIT.Stats.ReverseGuess
		r.PITHashLookups += n.Ctrl.PIT.Stats.ReverseHash
		r.DirCacheHits += n.Ctrl.Dir.Stats.CacheHits
		r.DirCacheMisses += n.Ctrl.Dir.Stats.CacheMisses

		ks := &n.Kern.Stats
		r.ClientPageOuts += ks.ClientPageOuts
		r.PageInMsgs += ks.PageInMsgs
		r.FlagHits += ks.FlagHits
		r.Conversions += ks.Conversions
		r.ReverseConvs += ks.ReverseConversions
		r.RealFrames += ks.RealAllocated
		r.ImagFrames += ks.ImagAllocated
		utilSum += n.Kern.Utilization()
		utilN++
		r.MaxClientFrames = append(r.MaxClientFrames, n.Kern.MaxClientSCOMA())
	}
	if utilN > 0 {
		r.Utilization = utilSum / float64(utilN)
	}
	r.NetMessages = m.Net.Stats.Messages
	r.NetBytes = m.Net.Stats.Bytes
	return r
}

// String renders the stat block printed by cmd/prismsim.
func (r Results) String() string {
	tb := metrics.NewTable("metric", "value", "detail")
	tb.Row("cycles", fmt.Sprintf("%d", r.Cycles), "")
	tb.Row("refs", fmt.Sprintf("%d", r.Refs), fmt.Sprintf("L1 miss %d, L2 miss %d", r.L1Misses, r.L2Misses))
	tb.Row("remote misses", fmt.Sprintf("%d", r.RemoteMisses), "")
	tb.Row("upgrades", fmt.Sprintf("%d", r.Upgrades), "")
	tb.Row("client page-outs", fmt.Sprintf("%d", r.ClientPageOuts), "")
	tb.Row("frames real/imag", fmt.Sprintf("%d / %d", r.RealFrames, r.ImagFrames), "")
	tb.Row("utilization", fmt.Sprintf("%.3f", r.Utilization), "")
	tb.Row("page faults", fmt.Sprintf("%d", r.PageFaults), fmt.Sprintf("page-in msgs %d, flag hits %d", r.PageInMsgs, r.FlagHits))
	tb.Row("conversions", fmt.Sprintf("%d", r.Conversions), "")
	tb.Row("net msgs/bytes", fmt.Sprintf("%d / %d", r.NetMessages, r.NetBytes), "")
	return fmt.Sprintf("workload=%s policy=%s\n%s", r.Workload, r.Policy, tb.String())
}

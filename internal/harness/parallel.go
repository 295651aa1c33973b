// Sweep execution. Every (app, policy, config) cell is an independent
// deterministic simulation — a private sim.Engine, Machine and
// workload instance per run, nothing shared but read-only config — so
// cells can execute on a worker pool without changing any result. The
// two-pass SCOMA-70 methodology runs as two waves: pass 1 runs every
// app's SCOMA sizing cell, pass 2 runs the remaining cells with the
// caps pass 1 derived. Results land in index-addressed slices and are
// aggregated in deterministic order afterwards, so the output —
// including the CSV dump — is byte-identical at any worker count.
package harness

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"prism"
)

// forEachIndexed runs fn(0), ..., fn(n-1) on up to w concurrent
// workers, each call at most once. Without cancellation all indices
// run even if some fail; the returned error is the lowest-indexed
// failure — the same cell a sequential loop would have reported first
// — so error behaviour is deterministic regardless of scheduling. When
// ctx is canceled, workers stop claiming new indices (calls already
// running finish) and the context error is returned after any recorded
// cell failure. done[i] reports whether fn(i) ran to a nil error.
func forEachIndexed(ctx context.Context, n, w int, fn func(i int) error) (done []bool, err error) {
	if w > n {
		w = n
	}
	done = make([]bool, n)
	errs := make([]error, n)
	if w <= 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				break
			}
			if errs[i] = fn(i); errs[i] != nil {
				return done, errs[i]
			}
			done[i] = true
		}
		return done, firstError(errs, ctx)
	}
	var next int64 = -1
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				if errs[i] = fn(i); errs[i] == nil {
					done[i] = true
				}
			}
		}()
	}
	wg.Wait()
	return done, firstError(errs, ctx)
}

// firstError resolves the deterministic sweep error: the lowest-indexed
// cell failure wins; a clean-but-canceled sweep reports the context.
func firstError(errs []error, ctx context.Context) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("harness: sweep aborted: %w", err)
	}
	return nil
}

// runPool executes the sweep on a worker pool in two waves. On
// cancellation it aggregates and returns only the cells that completed
// before the abort, alongside the context error.
func runPool(o *Options) ([]AppRun, error) {
	ctx := o.ctx()
	w := o.workers()
	runs := make([]AppRun, len(o.Apps))

	// Pass 1: SCOMA sizing for every app. The sizing run is a result
	// (and writes its export) only when SCOMA was requested.
	o.logf("pass 1: SCOMA sizing, %d apps on %d workers", len(o.Apps), w)
	wantSCOMA := slices.Contains(o.Policies, "SCOMA")
	sizingMetrics := ""
	if wantSCOMA {
		sizingMetrics = o.MetricsDir
	}
	sized, err := forEachIndexed(ctx, len(o.Apps), w, func(i int) error {
		scoma, err := o.runOne(o.Cell(o.Apps[i], "SCOMA", nil), sizingMetrics)
		if err != nil {
			return err
		}
		runs[i] = AppRun{
			App:    o.Apps[i],
			Sizing: scoma,
			ByPol:  map[string]prism.Results{},
			Caps:   capsFor(scoma, o.CapFraction),
		}
		if wantSCOMA {
			runs[i].ByPol["SCOMA"] = scoma
		}
		return nil
	})
	if err != nil {
		return collectDone(runs, sized), err
	}

	// Pass 2: every remaining app × policy cell.
	type cell struct{ app, pol int }
	var cells []cell
	for a := range o.Apps {
		for p, pol := range o.Policies {
			if pol == "SCOMA" {
				continue
			}
			cells = append(cells, cell{a, p})
		}
	}
	o.logf("pass 2: %d cells on %d workers", len(cells), w)
	results := make([]prism.Results, len(cells))
	ran, err := forEachIndexed(ctx, len(cells), w, func(i int) error {
		c := cells[i]
		res, err := o.runOne(o.Cell(o.Apps[c.app], o.Policies[c.pol], runs[c.app].Caps), o.MetricsDir)
		if err != nil {
			return err
		}
		results[i] = res
		return nil
	})
	for i, c := range cells {
		if ran[i] {
			runs[c.app].ByPol[o.Policies[c.pol]] = results[i]
		}
	}
	if err != nil {
		return collectDone(runs, sized), err
	}
	return runs, nil
}

// collectDone keeps the app runs whose sizing pass completed (partial
// per-policy coverage included), preserving app order.
func collectDone(runs []AppRun, sized []bool) []AppRun {
	var out []AppRun
	for i, ar := range runs {
		if i < len(sized) && sized[i] && ar.ByPol != nil {
			out = append(out, ar)
		}
	}
	return out
}

// runPITPool executes the §4.3 PIT sweep's 2×apps cells on a pool.
func runPITPool(o *Options) ([]PITRow, error) {
	ctx := o.ctx()
	w := o.workers()
	o.logf("PIT sweep: %d cells on %d workers", 2*len(o.Apps), w)
	results := make([]prism.Results, 2*len(o.Apps))
	ran, err := forEachIndexed(ctx, len(results), w, func(i int) error {
		c := o.Cell(o.Apps[i/2], "LANUMA", nil)
		if i%2 == 0 {
			c.PITAccess = 2
		} else {
			c.PITAccess = 10
		}
		// Both cells of an app are the same app × policy, so export
		// files would collide; the PIT study never uses them.
		res, err := o.runOne(c, "")
		if err != nil {
			return err
		}
		results[i] = res
		return nil
	})
	var out []PITRow
	for i, app := range o.Apps {
		if !ran[2*i] || !ran[2*i+1] {
			continue
		}
		fast, slow := results[2*i], results[2*i+1]
		out = append(out, PITRow{
			App:      app,
			Fast:     fast.Cycles,
			Slow:     slow.Cycles,
			Increase: float64(slow.Cycles)/float64(fast.Cycles) - 1,
		})
	}
	return out, err
}

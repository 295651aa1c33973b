package harness

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// cancelAfterLines is an Options.Log sink that cancels a context once
// it has seen n complete progress lines — a deterministic way to abort
// a sweep mid-flight, at a known cell boundary.
type cancelAfterLines struct {
	n      int
	seen   int
	cancel context.CancelFunc
}

func (c *cancelAfterLines) Write(p []byte) (int, error) {
	c.seen += strings.Count(string(p), "\n")
	if c.seen >= c.n {
		c.cancel()
	}
	return len(p), nil
}

// TestRunCancelSequential: a canceled context aborts the sequential
// sweep at the next cell boundary and returns the completed cells as
// partial results with the context error.
func TestRunCancelSequential(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	sink := &cancelAfterLines{n: 2, cancel: cancel} // "pass 1" line + SCOMA cell
	opts := Options{
		Spec:    Spec{Size: "mini", Apps: []string{"fft", "water-spa"}},
		Workers: 1,
		Log:     sink,
		Context: ctx,
	}
	runs, err := Run(opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(runs) == 0 {
		t.Fatal("no partial results returned")
	}
	for _, ar := range runs {
		if _, ok := ar.ByPol["SCOMA"]; !ok {
			t.Errorf("partial app %s has no SCOMA cell", ar.App)
		}
	}
	if len(runs) == 2 && len(runs[1].ByPol) == len(PolicyOrder) {
		t.Error("sweep ran to completion despite cancellation")
	}
}

// TestRunCancelParallel: same contract on the worker pool, and the
// partial cells must match what a fresh run of those cells produces.
func TestRunCancelParallel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	sink := &cancelAfterLines{n: 3, cancel: cancel}
	opts := Options{
		Spec:    Spec{Size: "mini", Apps: []string{"fft", "water-spa"}},
		Workers: 2,
		Log:     sink,
		Context: ctx,
	}
	runs, err := Run(opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	// Every partial cell must be byte-identical to an uncanceled run's.
	ref, err := Run(Options{Spec: Spec{Size: "mini", Apps: []string{"fft", "water-spa"}}, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	refBy := map[string]AppRun{}
	for _, ar := range ref {
		refBy[ar.App] = ar
	}
	for _, ar := range runs {
		want, ok := refBy[ar.App]
		if !ok {
			t.Fatalf("partial app %s not in reference", ar.App)
		}
		for pol, res := range ar.ByPol {
			if got, want := FormatRow(ar.App, pol, res), FormatRow(ar.App, pol, want.ByPol[pol]); got != want {
				t.Errorf("partial cell diverges:\n got  %s\n want %s", got, want)
			}
		}
	}
}

// TestRunCancelBeforeStart: an already-canceled context yields no
// cells at all, on both paths.
func TestRunCancelBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		runs, err := Run(Options{
			Spec:    Spec{Size: "mini", Apps: []string{"fft"}},
			Workers: workers,
			Context: ctx,
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if len(runs) != 0 {
			t.Errorf("workers=%d: %d cells ran under a pre-canceled context", workers, len(runs))
		}
	}
}

// TestPITSweepCancel covers the PIT entry point's cancellation path.
func TestPITSweepCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		rows, err := RunPITSweep(Options{
			Spec:    Spec{Size: "mini", Apps: []string{"fft"}},
			Workers: workers,
			Context: ctx,
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if len(rows) != 0 {
			t.Errorf("workers=%d: %d rows ran under a pre-canceled context", workers, len(rows))
		}
	}
}

package harness

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"prism/internal/fault"
	"prism/workloads"
)

// TestParallelMatchesSequential is the core determinism guarantee of
// the worker-pool sweep: identical AppRun aggregation and a
// byte-identical CSV at any worker count.
func TestParallelMatchesSequential(t *testing.T) {
	seqOpts := miniOpts()
	seqOpts.Workers = 1
	seqRuns, err := Run(seqOpts)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{0, 2, 8} {
		parOpts := miniOpts()
		parOpts.Workers = workers
		parRuns, err := Run(parOpts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(seqRuns, parRuns) {
			t.Errorf("workers=%d: AppRun aggregation differs from sequential", workers)
		}
		if err := DiffCSV(CSVString(parRuns), CSVString(seqRuns)); err != nil {
			t.Errorf("workers=%d: CSV not byte-identical:\n%v", workers, err)
		}
	}
}

// TestWorkersResolution pins the -j semantics: 0 means all host
// cores, 1 means the sequential path (what -seq forces).
func TestWorkersResolution(t *testing.T) {
	o := Options{}
	if w := o.workers(); w < 1 {
		t.Errorf("workers()=%d for Workers=0", w)
	}
	o.Workers = 1
	if w := o.workers(); w != 1 {
		t.Errorf("workers()=%d for Workers=1, want 1", w)
	}
	o.Workers = 3
	if w := o.workers(); w != 3 {
		t.Errorf("workers()=%d for Workers=3, want 3", w)
	}
}

// TestPITSweepParallelMatchesSequential covers the other sweep entry
// point.
func TestPITSweepParallelMatchesSequential(t *testing.T) {
	base := Options{Size: workloads.MiniSize, Apps: []string{"fft", "water-spa"}}

	seqOpts := base
	seqOpts.Workers = 1
	seqRows, err := RunPITSweep(seqOpts)
	if err != nil {
		t.Fatal(err)
	}
	parOpts := base
	parOpts.Workers = 4
	parRows, err := RunPITSweep(parOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seqRows, parRows) {
		t.Errorf("PIT rows differ:\nseq %+v\npar %+v", seqRows, parRows)
	}
}

// TestParallelLogLinesAtomic runs a concurrent sweep into one shared
// writer and checks that every emitted line is a complete, recognized
// progress line — no interleaving, no torn writes.
func TestParallelLogLinesAtomic(t *testing.T) {
	var buf bytes.Buffer
	opts := miniOpts()
	opts.Workers = 8
	opts.Log = &buf
	if _, err := Run(opts); err != nil {
		t.Fatal(err)
	}

	runLine := regexp.MustCompile(`^  (fft|water-spa) +\S+ +cycles=\d+ +remote=\d+ +pageouts=\d+ +frames=\d+\+\d+\s*$`)
	passLine := regexp.MustCompile(`^pass [12]: .*workers$`)
	var runLines int
	for _, line := range strings.Split(strings.TrimRight(buf.String(), "\n"), "\n") {
		switch {
		case runLine.MatchString(line):
			runLines++
		case passLine.MatchString(line):
		default:
			t.Errorf("torn or unrecognized log line: %q", line)
		}
	}
	// 2 apps × (1 SCOMA sizing + 5 other policies) complete lines.
	if want := 2 * len(PolicyOrder); runLines != want {
		t.Errorf("run lines %d, want %d", runLines, want)
	}
}

// TestParallelErrorIsDeterministic: a failing cell must surface the
// same (lowest-ordered) error the sequential loop reports, regardless
// of scheduling.
func TestParallelErrorIsDeterministic(t *testing.T) {
	opts := Options{Size: workloads.MiniSize, Apps: []string{"nosuch-a", "nosuch-b"}}
	opts.Workers = 1
	_, seqErr := Run(opts)
	if seqErr == nil {
		t.Fatal("sequential run accepted unknown app")
	}
	for i := 0; i < 3; i++ {
		opts.Workers = 4
		_, parErr := Run(opts)
		if parErr == nil {
			t.Fatal("parallel run accepted unknown app")
		}
		if parErr.Error() != seqErr.Error() {
			t.Errorf("parallel error %q, sequential %q", parErr, seqErr)
		}
	}
}

// TestCellPanicIsCellError: a panic inside a cell — here the recovery
// transport's retry cap, raised in engine context on a pool worker —
// comes back as an error naming the cell instead of crashing the
// process.
func TestCellPanicIsCellError(t *testing.T) {
	plan, err := fault.ParseSpec("seed=1,drop=0.9,retry=2")
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{
		Size:     workloads.MiniSize,
		Apps:     []string{"fft", "radix"},
		Policies: []string{"SCOMA"},
		Workers:  2,
		Faults:   plan,
	}
	_, err = Run(opts)
	if err == nil {
		t.Fatal("sweep over a fabric dropping 90 percent of messages with retry cap 2 succeeded")
	}
	if msg := err.Error(); !strings.HasPrefix(msg, "fft/SCOMA: network: ") || !strings.Contains(msg, "retry cap") {
		t.Fatalf("error %q does not name the cell and the retry cap", msg)
	}
}

// TestFailedCellsReleaseGoroutines: a cell that panics stops its
// machine's processor coroutines, so failing cells leave no goroutine
// (and no machine) behind.
func TestFailedCellsReleaseGoroutines(t *testing.T) {
	plan, err := fault.ParseSpec("seed=1,drop=0.9,retry=2")
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{
		Size:     workloads.MiniSize,
		Apps:     []string{"fft"},
		Policies: []string{"SCOMA"},
		Workers:  1,
		Faults:   plan,
	}
	base := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		if _, err := Run(opts); err == nil {
			t.Fatal("cell over a fabric dropping 90 percent of messages with retry cap 2 succeeded")
		}
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after five failed cells, %d before", n, base)
	}
}

// TestForEachIndexed covers the pool helper directly: every index runs
// exactly once and the lowest-indexed error wins.
func TestForEachIndexed(t *testing.T) {
	ctx := context.Background()
	const n = 100
	var calls [n]int32
	done, err := forEachIndexed(ctx, n, 7, func(i int) error {
		atomic.AddInt32(&calls[i], 1)
		if i == 13 || i == 60 {
			return fmt.Errorf("cell %d failed", i)
		}
		return nil
	})
	for i, c := range calls {
		if c != 1 {
			t.Errorf("index %d ran %d times", i, c)
		}
	}
	if err == nil || err.Error() != "cell 13 failed" {
		t.Errorf("err = %v, want cell 13's", err)
	}
	if done[13] || done[60] || !done[0] || !done[99] {
		t.Errorf("done flags wrong: done[13]=%v done[60]=%v done[0]=%v done[99]=%v",
			done[13], done[60], done[0], done[99])
	}
	if _, err := forEachIndexed(ctx, 4, 2, func(int) error { return nil }); err != nil {
		t.Errorf("clean pool returned %v", err)
	}
	var seq []int
	if _, err := forEachIndexed(ctx, 3, 1, func(i int) error { seq = append(seq, i); return nil }); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, []int{0, 1, 2}) {
		t.Errorf("w=1 order %v, want in-order", seq)
	}
}

// TestForEachIndexedCancel: canceling the context stops the pool from
// claiming new indices and surfaces the context error.
func TestForEachIndexedCancel(t *testing.T) {
	for _, w := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran int32
		done, err := forEachIndexed(ctx, 1000, w, func(i int) error {
			atomic.AddInt32(&ran, 1)
			cancel()
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("w=%d: err = %v, want context.Canceled", w, err)
		}
		// At most one in-flight call per worker after the cancel.
		if n := atomic.LoadInt32(&ran); n > int32(2*w) {
			t.Errorf("w=%d: %d calls ran after cancellation", w, n)
		}
		var completed int
		for _, d := range done {
			if d {
				completed++
			}
		}
		if completed != int(ran) {
			t.Errorf("w=%d: done reports %d, %d calls ran", w, completed, ran)
		}
	}
}

package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The benchmark's end-to-end times are normalized to a reference host
// speed. On a host shared with other machines the speed of the same
// code can drift by 50% for minutes at a time, CPU time included: the
// process runs, only slower. A fixed calibration loop, independent of
// the simulator, slows down with it. A run takes calibration samples
// before its first pass and after each one, and its times are scaled by
// refCalSeconds over the median of all of them, so they read in seconds
// of a host that runs the loop in refCalSeconds. The loop's samples
// are short and the host's speed also flickers within a second, so one
// factor from every sample of the run is steadier than one per pass.
// The raw wall time and the factor are reported too
// (host.wall_s, host.speed). A change to the simulator moves the
// normalized times as it moves the raw ones, since the loop never calls
// into it.
//
// The loop runs in a child process, the benchmark binary started with
// -calibrate, so that its memory and garbage collections touch neither
// the in-process workloads' heap nor their peak resident set. A sample
// is the mean of two copies of the loop run at once, one per CPU of
// GOMAXPROCS 2: every workload keeps both CPUs busy (a second worker,
// the garbage collector, prismd's handlers), and interference on a
// shared host can slow one CPU and not the other.

// refCalSeconds is about the median calibration sample on the reference
// host, 2 × Intel Xeon at GOMAXPROCS 2 with Go 1.24: 0.041 s at the
// 10th percentile of its samples, 0.064 s at the 90th.
const refCalSeconds = 0.045

// calSamples is how many calibration samples are taken before the first
// pass and after each pass.
const calSamples = 4

// calState is the calibration loop's memory, allocated once so that a
// sample allocates only in its allocation step.
type calState struct {
	chase []int32 // a fixed pseudo-random permutation, 4 MiB
	m     map[int]int
	keep  [][]byte
	sink  uint64
}

func newCalState() *calState {
	s := &calState{chase: make([]int32, 1<<20), m: make(map[int]int, 1<<16), keep: make([][]byte, 0, 1024)}
	for i := range s.chase {
		s.chase[i] = int32((i*2654435761 + 12345) & (1<<20 - 1))
	}
	return s
}

// calibrate runs the calibration loop once and returns its wall time.
// The loop mixes the kinds of host work the simulator does: map
// updates, dependent loads over a table larger than the private caches,
// small allocations, goroutine handoffs over unbuffered channels and
// integer arithmetic.
func (s *calState) calibrate() float64 {
	start := time.Now()
	clear(s.m)
	for i := 0; i < 150000; i++ {
		s.m[(i*7919)&0xFFFF] += i
	}
	j := int32(0)
	for i := 0; i < 500000; i++ {
		j = s.chase[j]
	}
	for i := 0; i < 20000; i++ {
		s.keep = append(s.keep, make([]byte, 64+i%256))
		if len(s.keep) == cap(s.keep) {
			s.keep = s.keep[:0]
		}
	}
	ping, pong := make(chan int), make(chan int)
	go func() {
		for v := range ping {
			pong <- v + 1
		}
		close(pong)
	}()
	for i := 0; i < 10000; i++ {
		ping <- i
		<-pong
	}
	close(ping)
	<-pong
	x := uint64(j)
	for i := 0; i < 10000000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	elapsed := time.Since(start).Seconds()
	s.keep = s.keep[:0]
	s.sink += x // keeps the arithmetic loop
	return elapsed
}

// calibrationMain is the -calibrate mode: one untimed warm-up sample,
// then n timed ones, printed as one line of seconds. Each sample starts
// from a collected heap and runs two copies of the loop at once.
func calibrationMain(w io.Writer, n int) error {
	a, b := newCalState(), newCalState()
	sample := func() float64 {
		runtime.GC()
		var ta, tb float64
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); ta = a.calibrate() }()
		go func() { defer wg.Done(); tb = b.calibrate() }()
		wg.Wait()
		return (ta + tb) / 2
	}
	sample()
	xs := make([]string, n)
	for i := range xs {
		xs[i] = strconv.FormatFloat(sample(), 'g', -1, 64)
	}
	_, err := fmt.Fprintln(w, strings.Join(xs, " "))
	return err
}

// hostSamples takes calSamples calibration samples in a child process.
func hostSamples() ([]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	out, err := exec.Command(self, "-calibrate", strconv.Itoa(calSamples)).Output()
	if err != nil {
		return nil, fmt.Errorf("calibration: %w", err)
	}
	var xs []float64
	for _, f := range strings.Fields(string(out)) {
		x, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil, fmt.Errorf("calibration output %q: %w", out, err)
		}
		xs = append(xs, x)
	}
	if len(xs) != calSamples {
		return nil, fmt.Errorf("calibration output %q: want %d samples", out, calSamples)
	}
	return xs, nil
}

// normalize scales a pass's end-to-end times by the host speed of its
// run (refCalSeconds over the calibration median; below 1 when the host
// is slower than the reference) and keeps the raw wall time as
// host.wall_s.
func normalize(vals map[string]float64, cal []float64) {
	speed := refCalSeconds / median(cal)
	vals["host.speed"] = speed
	vals["host.wall_s"] = vals["wall_s"]
	for _, m := range endToEnd {
		v, ok := vals[m.Name]
		if !ok {
			continue
		}
		switch m.Unit {
		case "s":
			vals[m.Name] = v * speed
		case "Mcycle/s":
			vals[m.Name] = v / speed
		}
	}
}

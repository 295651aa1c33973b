// Quickstart: build the paper's 32-processor PRISM machine, run the
// FFT workload under the Dyn-LRU adaptive page-mode policy, and print
// the run's statistics.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"prism"
	"prism/workloads"
)

// report runs FFT under SCOMA (the sizing pass) and under capped
// Dyn-LRU, and writes the Dyn-LRU statistics and the comparison to w.
func report(w io.Writer) error {
	// A machine scaled for the CI-sized data sets (quarter-scale
	// caches keep the capacity trade-off of §4.1 in play). The sized
	// Config seeds prism.New; functional options layer on top of it.
	base := workloads.ConfigForSize(workloads.CISize)

	// Capped policies size the page cache from a SCOMA pass, as the
	// paper does: 70% of the per-node maximum client frame count.
	m0, err := prism.New(base, prism.WithPolicy("SCOMA"))
	if err != nil {
		return err
	}
	pre, err := m0.Run(workloads.NewFFT(workloads.CISize))
	if err != nil {
		return err
	}
	caps := make([]int, len(pre.MaxClientFrames))
	for i, c := range pre.MaxClientFrames {
		if caps[i] = c * 7 / 10; caps[i] < 1 {
			caps[i] = 1
		}
	}

	m, err := prism.New(base,
		prism.WithPolicy("Dyn-LRU"),
		prism.WithPageCacheCaps(caps),
	)
	if err != nil {
		return err
	}
	res, err := m.Run(workloads.NewFFT(workloads.CISize))
	if err != nil {
		return err
	}

	fmt.Fprint(w, res)
	fmt.Fprintf(w, "\nSCOMA baseline cycles: %d  →  Dyn-LRU: %d (%.2fx)\n",
		pre.Cycles, res.Cycles, float64(res.Cycles)/float64(pre.Cycles))
	return nil
}

func main() {
	if err := report(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

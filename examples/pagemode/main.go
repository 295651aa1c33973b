// Pagemode: the CC-NUMA vs S-COMA trade-off on one application — a
// miniature Figure 7. Runs Ocean (the most capacity-sensitive SPLASH
// code) under all six page-mode policies and plots normalized
// execution time as ASCII bars.
//
//	go run ./examples/pagemode [-app ocean] [-size ci]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"prism"
	"prism/workloads"
)

func main() {
	app := flag.String("app", "ocean", "application to sweep")
	sizeFlag := flag.String("size", "ci", "mini|ci|paper")
	flag.Parse()

	var size workloads.Size
	switch *sizeFlag {
	case "mini":
		size = workloads.MiniSize
	case "ci":
		size = workloads.CISize
	case "paper":
		size = workloads.PaperSize
	default:
		log.Fatalf("unknown size %q", *sizeFlag)
	}

	run := func(pol string, caps []int) prism.Results {
		cfg := workloads.ConfigForSize(size)
		cfg.Policy = prism.MustPolicy(pol)
		cfg.PageCacheCaps = caps
		m, err := prism.New(cfg)
		if err != nil {
			log.Fatal(err)
		}
		w, err := workloads.NewWorkload(*app, size, nil)
		if err != nil {
			log.Fatal(err)
		}
		res, err := m.Run(w)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "  ran %-9s cycles=%d remote=%d pageouts=%d\n",
			pol, res.Cycles, res.RemoteMisses, res.ClientPageOuts)
		return res
	}

	fmt.Fprintf(os.Stderr, "%s at %s size:\n", *app, size)
	scoma := run("SCOMA", nil)
	caps := make([]int, len(scoma.MaxClientFrames))
	for i, c := range scoma.MaxClientFrames {
		if caps[i] = c * 7 / 10; caps[i] < 1 {
			caps[i] = 1
		}
	}

	results := map[string]prism.Results{"SCOMA": scoma}
	order := []string{"SCOMA", "LANUMA", "SCOMA-70", "Dyn-FCFS", "Dyn-Util", "Dyn-LRU"}
	for _, pol := range order[1:] {
		var c []int
		if pol != "LANUMA" {
			c = caps
		}
		results[pol] = run(pol, c)
	}

	fmt.Printf("\n%s: execution time normalized to SCOMA\n\n", *app)
	for _, pol := range order {
		norm := float64(results[pol].Cycles) / float64(scoma.Cycles)
		bar := strings.Repeat("█", int(norm*30+0.5))
		fmt.Printf("%-9s %5.2f %s\n", pol, norm, bar)
	}
	fmt.Printf("\nremote misses: SCOMA=%d LANUMA=%d SCOMA-70=%d (page-outs %d)\n",
		results["SCOMA"].RemoteMisses, results["LANUMA"].RemoteMisses,
		results["SCOMA-70"].RemoteMisses, results["SCOMA-70"].ClientPageOuts)
}

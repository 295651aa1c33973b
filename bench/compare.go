package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// seedDependentCounts names the workloads whose simulated statistics
// depend on the seed: ci-stress's lossy cell draws its fault seed from
// it. Their counts are compared exactly only between equal seeds.
var seedDependentCounts = map[string]bool{"ci-stress": true}

// verdict compares a new end-to-end summary b with its baseline a.
// delta is the relative change of the median, positive when b is
// worse. The bound is the baseline's.
//
//   - worse: the median got worse by more than the bound and the two
//     interquartile ranges do not overlap
//   - unresolved: either spread (IQR over median) is wider than the bound
//   - better: the mirror image of worse
//   - same: everything else
func verdict(a, b summary) (delta float64, v string) {
	delta = (b.Median - a.Median) / a.Median
	if a.Better == "higher" {
		delta = -delta
	}
	apart := a.Q3 < b.Q1 || b.Q3 < a.Q1
	switch {
	case delta > a.Bound && apart:
		return delta, "worse"
	case a.spread() > a.Bound || b.spread() > a.Bound:
		return delta, "unresolved"
	case -delta > a.Bound && apart:
		return delta, "better"
	}
	return delta, "same"
}

func readSet(path string) (resultSet, error) {
	var s resultSet
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// compareFiles prints one row per workload × end-to-end metric and per
// simulated count, and fails on any worse or model-changed row.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readSet(pathA)
	if err != nil {
		return err
	}
	b, err := readSet(pathB)
	if err != nil {
		return err
	}
	return compareSets(w, a, b)
}

func compareSets(w io.Writer, a, b resultSet) error {
	byName := map[string]workloadResult{}
	for _, wl := range b.Workloads {
		byName[wl.Name] = wl
	}
	bad := map[string]int{}
	fmt.Fprintf(w, "A: seed %d, %s, %s\nB: seed %d, %s, %s\n", a.Provenance.Seed, a.Provenance.GitHead, a.Provenance.DateUTC,
		b.Provenance.Seed, b.Provenance.GitHead, b.Provenance.DateUTC)
	fmt.Fprintf(w, "%-13s %-26s %-34s %-34s %8s %6s  %s\n", "workload", "metric", "A median [q1 q3]", "B median [q1 q3]", "delta", "bound", "verdict")
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			fmt.Fprintf(w, "%-13s missing from B\n", wa.Name)
			continue
		}
		bEnd := map[string]summary{}
		for _, s := range wb.EndToEnd {
			bEnd[s.Name] = s
		}
		for _, sa := range wa.EndToEnd {
			sb, ok := bEnd[sa.Name]
			if !ok {
				continue
			}
			delta, v := verdict(sa, sb)
			bad[v]++
			fmt.Fprintf(w, "%-13s %-26s %-34s %-34s %+7.1f%% %5.0f%%  %s\n", wa.Name, sa.Name,
				fmt.Sprintf("%.5g [%.5g %.5g]", sa.Median, sa.Q1, sa.Q3),
				fmt.Sprintf("%.5g [%.5g %.5g]", sb.Median, sb.Q1, sb.Q3), 100*delta, 100*sa.Bound, v)
		}
		bLayer := map[string]float64{}
		for _, l := range wb.PerLayer {
			bLayer[l.Name] = l.Value
		}
		for _, la := range wa.PerLayer {
			lb, ok := bLayer[la.Name]
			if !ok || !la.exact() {
				continue
			}
			v := "same"
			if la.Value != lb {
				v = "model-changed"
				if seedDependentCounts[wa.Name] && a.Provenance.Seed != b.Provenance.Seed {
					v = "seed-dependent"
				}
			}
			bad[v]++
			fmt.Fprintf(w, "%-13s %-26s %-34.0f %-34.0f %8s %6s  %s\n", wa.Name, la.Name, la.Value, lb, "", "exact", v)
		}
	}
	fmt.Fprintf(w, "verdicts: %d same, %d better, %d unresolved, %d worse, %d model-changed, %d seed-dependent\n",
		bad["same"], bad["better"], bad["unresolved"], bad["worse"], bad["model-changed"], bad["seed-dependent"])
	if bad["worse"] > 0 || bad["model-changed"] > 0 {
		return fmt.Errorf("%d worse and %d model-changed rows", bad["worse"], bad["model-changed"])
	}
	return nil
}

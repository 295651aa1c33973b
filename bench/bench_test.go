package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"prism"
	"prism/workloads"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedianQuartilesPercentile(t *testing.T) {
	// Expected quartiles are statistics.quantiles(xs, n=4) from Python.
	cases := []struct {
		xs             []float64
		med, q1, q3    float64
		p50, p90, p100 float64
	}{
		{[]float64{5}, 5, 5, 5, 5, 5, 5},
		{[]float64{2, 1}, 1.5, 0.75, 2.25, 1, 2, 2},
		{[]float64{3, 1, 2}, 2, 1, 3, 2, 3, 3},
		{[]float64{1, 2, 3, 4}, 2.5, 1.25, 3.75, 2, 4, 4},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 5.5, 2.75, 8.25, 5, 9, 10},
	}
	for _, c := range cases {
		if got := median(c.xs); !near(got, c.med) {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.med)
		}
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
		for p, want := range map[float64]float64{50: c.p50, 90: c.p90, 100: c.p100} {
			if got := percentile(c.xs, p); !near(got, want) {
				t.Errorf("percentile(%v, %v) = %v, want %v", c.xs, p, got, want)
			}
		}
	}
	// With 1000 samples the 99th percentile leaves exactly ten beyond it.
	var xs []float64
	for i := 1; i <= 1000; i++ {
		xs = append(xs, float64(i))
	}
	if got := percentile(xs, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

func TestNormalize(t *testing.T) {
	// Calibration ran at half the reference speed: times halve, rates
	// double, memory stays, and the raw wall time is kept.
	vals := map[string]float64{"wall_s": 4, "cpu_s": 5, "setup_s": 0.002, "sim_mcycles_per_s": 3, "peak_rss_mb": 30}
	normalize(vals, []float64{2 * refCalSeconds, 1 * refCalSeconds, 3 * refCalSeconds})
	want := map[string]float64{"wall_s": 2, "cpu_s": 2.5, "setup_s": 0.001, "sim_mcycles_per_s": 6, "peak_rss_mb": 30,
		"host.speed": 0.5, "host.wall_s": 4}
	for k, w := range want {
		if !near(vals[k], w) {
			t.Errorf("%s = %v, want %v", k, vals[k], w)
		}
	}
}

func sum(m metric, median, q1, q3 float64) summary {
	return summary{metric: m, Median: median, Q1: q1, Q3: q3}
}

func TestVerdict(t *testing.T) {
	lower := metric{"wall_s", "s", "lower", 0.10}
	higher := metric{"sim_mcycles_per_s", "Mcycle/s", "higher", 0.10}
	cases := []struct {
		name string
		a, b summary
		want string
	}{
		{"same", sum(lower, 10, 9.9, 10.1), sum(lower, 10.2, 10.1, 10.3), "same"},
		{"worse", sum(lower, 10, 9.9, 10.1), sum(lower, 12, 11.9, 12.1), "worse"},
		{"worse but overlapping", sum(lower, 10, 9.6, 10.5), sum(lower, 11.2, 10.4, 11.4), "same"},
		{"better", sum(lower, 10, 9.9, 10.1), sum(lower, 8, 7.9, 8.1), "better"},
		{"unresolved", sum(lower, 10, 9, 11.5), sum(lower, 10.1, 9.9, 10.2), "unresolved"},
		{"higher is better, drop is worse", sum(higher, 10, 9.9, 10.1), sum(higher, 8, 7.9, 8.1), "worse"},
		{"higher is better, rise is better", sum(higher, 10, 9.9, 10.1), sum(higher, 12, 11.9, 12.1), "better"},
	}
	for _, c := range cases {
		if _, got := verdict(c.a, c.b); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareSetsFailsOnModelChange(t *testing.T) {
	mk := func(seed int64, count float64) resultSet {
		return resultSet{
			Provenance: provenance{Seed: seed},
			Workloads: []workloadResult{{
				Name:     "ci-stress",
				EndToEnd: []summary{sum(endToEnd[0], 10, 9.9, 10.1)},
				PerLayer: []layerValue{{metric{"network.messages", "count", "lower", 0}, count}},
			}},
		}
	}
	var out bytes.Buffer
	if err := compareSets(&out, mk(1, 100), mk(1, 100)); err != nil {
		t.Fatalf("identical sets: %v\n%s", err, out.String())
	}
	out.Reset()
	err := compareSets(&out, mk(1, 100), mk(1, 101))
	if err == nil || !strings.Contains(out.String(), "model-changed") {
		t.Fatalf("changed count: err %v\n%s", err, out.String())
	}
	// ci-stress's counts follow its fault seed, so across seeds they are
	// reported, not failed.
	out.Reset()
	if err := compareSets(&out, mk(1, 100), mk(2, 101)); err != nil || !strings.Contains(out.String(), "seed-dependent") {
		t.Fatalf("changed count across seeds: err %v\n%s", err, out.String())
	}
}

func TestMatchRow(t *testing.T) {
	data, err := os.ReadFile("../results_ci.csv")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := parseRef(data)
	if err != nil {
		t.Fatal(err)
	}
	// fft,SCOMA,1721091,14470,0,1040,0,0.3261,7168,0,6272,2537,98094,3101536
	res := prism.Results{Cycles: 1721091, RemoteMisses: 14470, RealFrames: 1040, Utilization: 0.32608,
		Upgrades: 7168, InvsSent: 6272, PageFaults: 2537, NetMessages: 98094, NetBytes: 3101536}
	if d := matchRow(ref, "fft", "SCOMA", res); d != "" {
		t.Fatalf("matching row reported %q", d)
	}
	res.Cycles++
	res.NetBytes = 7
	d := matchRow(ref, "fft", "SCOMA", res)
	if !strings.Contains(d, "cycles=1721092 want 1721091") || !strings.Contains(d, "net_bytes=7 want 3101536") {
		t.Fatalf("mismatch reported as %q", d)
	}
	if d := matchRow(ref, "fft", "Dyn-Both", res); !strings.Contains(d, "no reference row") {
		t.Fatalf("missing row reported as %q", d)
	}
}

// miniCell runs fft/SCOMA at mini size, traced or not, and returns its
// results and metrics export.
func miniCell(t *testing.T, traced bool) (prism.Results, []byte, *tracer) {
	t.Helper()
	m, err := prism.New(workloads.ConfigForSize(workloads.MiniSize), prism.WithPolicy("SCOMA"))
	if err != nil {
		t.Fatal(err)
	}
	w, err := workloads.NewWorkload("fft", workloads.MiniSize, nil)
	if err != nil {
		t.Fatal(err)
	}
	var tr *tracer
	if traced {
		tr = traceMachine(m)
	}
	res, err := m.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.ExportMetrics("fft", "SCOMA").WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return res, buf.Bytes(), tr
}

func TestTracingIsPureObservation(t *testing.T) {
	plainRes, plainJSON, _ := miniCell(t, false)
	tracedRes, tracedJSON, tr := miniCell(t, true)
	if !reflect.DeepEqual(plainRes, tracedRes) {
		t.Errorf("traced results differ:\nplain  %+v\ntraced %+v", plainRes, tracedRes)
	}
	if !bytes.Equal(plainJSON, tracedJSON) {
		t.Error("traced metrics export differs from the untraced one")
	}
	// Results count the measured phase only; the tracer sees the whole
	// run, set-up phase included.
	if tr.refs < plainRes.Refs {
		t.Errorf("tracer counted %d refs, results say %d in the measured phase alone", tr.refs, plainRes.Refs)
	}
	var spans uint64
	for _, s := range tr.spans {
		spans += s.n
	}
	if spans < plainRes.NetMessages {
		t.Errorf("%d delivery spans for %d messages in the measured phase alone", spans, plainRes.NetMessages)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json, which declares the
// benchmark, in step with the metric tables here.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, want %v", names, workloadNames)
	}
	if !reflect.DeepEqual(decl.EndToEnd, endToEnd) {
		t.Errorf("end_to_end\n%+v\nwant\n%+v", decl.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(decl.PerLayer, perLayer) {
		t.Errorf("per_layer\n%+v\nwant\n%+v", decl.PerLayer, perLayer)
	}
}

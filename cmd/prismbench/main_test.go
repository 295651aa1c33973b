package main

import (
	"reflect"
	"strings"
	"testing"
)

func TestParseExperiments(t *testing.T) {
	all := map[string]bool{"table1": true, "table2": true, "fig7": true, "table3": true, "table4": true, "table5": true, "pit": true}
	cases := []struct {
		in        string
		withBench bool
		want      map[string]bool
		wantErr   string
	}{
		{in: "fig7", want: map[string]bool{"fig7": true}},
		{in: "fig7,table3,table4,table5", want: map[string]bool{"fig7": true, "table3": true, "table4": true, "table5": true}},
		{in: " table1 , pit", want: map[string]bool{"table1": true, "pit": true}},
		{in: "all", want: all},
		{in: "pit,all", want: all},
		{in: "", want: all},
		{in: "", withBench: true, want: map[string]bool{}},
		{in: "table2", withBench: true, want: map[string]bool{"table2": true}},
		{in: "nosuch", wantErr: `-exp: unknown experiment "nosuch" (valid: table1,table2,fig7,table3,table4,table5,pit,all)`},
		{in: "fig7,fig8", wantErr: `-exp: unknown experiment "fig8" (valid: table1,table2,fig7,table3,table4,table5,pit,all)`},
		{in: "fig7,", wantErr: `-exp: unknown experiment "" (valid: table1,table2,fig7,table3,table4,table5,pit,all)`},
	}
	for _, c := range cases {
		got, err := parseExperiments(c.in, c.withBench)
		if c.wantErr != "" {
			if err == nil || err.Error() != c.wantErr {
				t.Errorf("parseExperiments(%q, %v) error = %v, want %q", c.in, c.withBench, err, c.wantErr)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, c.want) {
			t.Errorf("parseExperiments(%q, %v) = %v, %v; want %v", c.in, c.withBench, got, err, c.want)
		}
	}
}

func TestSelectBenchmarks(t *testing.T) {
	have := strings.Join(benchNames(), ",")
	cases := []struct {
		in      string
		want    []string
		wantErr string
	}{
		{in: "all", want: benchNames()},
		{in: "KernelPTEHit", want: []string{"KernelPTEHit"}},
		{in: "MachineRadix, EventQueue", want: []string{"MachineRadix", "EventQueue"}},
		{in: "NoSuchRow", wantErr: `unknown benchmark "NoSuchRow" (have: ` + have + `)`},
		{in: "EventQueue,eventqueue", wantErr: `unknown benchmark "eventqueue" (have: ` + have + `)`},
		{in: "EventQueue,", wantErr: `unknown benchmark "" (have: ` + have + `)`},
	}
	for _, c := range cases {
		rows, err := selectBenchmarks(c.in)
		if c.wantErr != "" {
			if err == nil || err.Error() != c.wantErr {
				t.Errorf("selectBenchmarks(%q) error = %v, want %q", c.in, err, c.wantErr)
			}
			continue
		}
		var got []string
		for _, r := range rows {
			got = append(got, r.Name)
		}
		if err != nil || !reflect.DeepEqual(got, c.want) {
			t.Errorf("selectBenchmarks(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
}

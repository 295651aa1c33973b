package main

import (
	"math"
	"sort"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value, or the mean of the two middle values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles by the method of
// Python's statistics.quantiles(xs, n=4) (the default, "exclusive"),
// so spreads read the same here as in any script that checks them.
// With a single value both quartiles are that value.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	const n = 4
	m := ld + 1
	at := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return at(1), at(3)
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100): the
// smallest value with at least p% of the samples at or below it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

// summary is one end-to-end metric over a set of samples.
type summary struct {
	metric
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

func summarize(m metric, xs []float64) summary {
	s := sorted(xs)
	q1, q3 := quartiles(s)
	out := summary{metric: m, Median: median(s), Q1: q1, Q3: q3, N: len(s), Values: xs}
	if len(s) > 0 {
		out.Min, out.Max = s[0], s[len(s)-1]
	}
	return out
}

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 { return (s.Q3 - s.Q1) / s.Median }

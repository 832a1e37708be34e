package main

import (
	"math"
	"slices"
	"sort"
)

// summary is how every timing is reported: median, quartiles, and the
// number of samples behind them.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// quantile returns the q-quantile of an ascending slice by linear
// interpolation between closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if sorted[lo] == sorted[hi] {
		return sorted[lo]
	}
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

func summarize(vals []float64) summary {
	s := sortedCopy(vals)
	return summary{Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: len(s)}
}

func median(vals []float64) float64 { return quantile(sortedCopy(vals), 0.5) }

// tailPercentile returns the p-quantile only when at least ten samples lie
// beyond it; below that the tail is not resolved and the second result is
// false.
func tailPercentile(vals []float64, p float64) (float64, bool) {
	if float64(len(vals))*(1-p) < 10 {
		return 0, false
	}
	return quantile(sortedCopy(vals), p), true
}

// highPercentile returns the p-quantile, lowered as far as needed for ten
// samples to lie beyond it; with fewer than twenty samples it is the maximum.
func highPercentile(vals []float64, p float64) float64 {
	n := float64(len(vals))
	if n < 20 {
		return slices.Max(vals)
	}
	if limit := 1 - 10/n; p > limit {
		p = limit
	}
	return quantile(sortedCopy(vals), p)
}

// quartilesExclusive reproduces Python's statistics.quantiles(v, n=4): the
// rule the acceptance check applies to the per-run values of a metric.
func quartilesExclusive(vals []float64) (q1, q2, q3 float64) {
	s := sortedCopy(vals)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4 // 1-based rank
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (s[j]-s[j-1])*(pos-float64(j))
	}
	return at(1), at(2), at(3)
}

// jain is Jain's fairness index (Σx)²/(n·Σx²); 1 is perfectly fair.
func jain(xs []float64) float64 {
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

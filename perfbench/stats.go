package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: a tail resting on fewer samples is no tail.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of sorted
// samples. ok is false when fewer than minBeyond samples lie beyond it.
func percentile(sorted []float64, p float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p * float64(n)))
	rank = max(1, min(rank, n))
	return sorted[rank-1], n-rank >= minBeyond
}

// tail returns the highest of p99.9, p99 and p90 that has at least
// minBeyond samples beyond it, by name ("p99"); name is "" when none
// has (fewer than 100 samples).
func tail(sorted []float64) (name string, v float64) {
	for _, t := range []struct {
		name string
		p    float64
	}{{"p99.9", 0.999}, {"p99", 0.99}, {"p90", 0.90}} {
		if v, ok := percentile(sorted, t.p); ok {
			return t.name, v
		}
	}
	return "", 0
}

// median of unsorted values (the mean of the middle two for even n).
func median(vals []float64) float64 {
	s := sortedCopy(vals)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1, Q2, Q3 exactly as Python's
// statistics.quantiles(values, n=4) (the default "exclusive" method)
// computes them; it needs at least two values.
func quartiles(vals []float64) (q [3]float64) {
	s := sortedCopy(vals)
	ld := len(s)
	if ld < 2 {
		for i := range q {
			q[i] = math.NaN()
		}
		return q
	}
	const n = 4
	m := ld + 1
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q
}

// spread is the interquartile range as a share of the median.
func spread(vals []float64) float64 {
	q := quartiles(vals)
	return (q[2] - q[0]) / q[1]
}

func sortedCopy(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

// verdict compares one metric between a parent's runs and a change's
// runs, paired in run order, by the rule for claiming a gain: the
// change wins at least nine tenths of the pairs (ties count for
// neither side) and the medians differ by more than the parent's own
// interquartile range. Worse reports a median that moved the wrong way
// by more than bound (a share of the parent median; 0 means no bound).
type verdict struct {
	Pairs, Wins, Losses     int
	ParentMed, ChangeMed    float64
	ParentIQR               float64
	Gain, Worse, Unresolved bool
}

func compareMetric(parent, change []float64, higherBetter bool, bound float64) verdict {
	v := verdict{Pairs: min(len(parent), len(change))}
	for i := 0; i < v.Pairs; i++ {
		d := change[i] - parent[i]
		if !higherBetter {
			d = -d
		}
		switch {
		case d > 0:
			v.Wins++
		case d < 0:
			v.Losses++
		}
	}
	v.ParentMed, v.ChangeMed = median(parent), median(change)
	if len(parent) >= 2 {
		q := quartiles(parent)
		v.ParentIQR = q[2] - q[0]
	}
	gap := v.ChangeMed - v.ParentMed
	if !higherBetter {
		gap = -gap
	}
	v.Gain = v.Pairs > 0 && 10*v.Wins >= 9*v.Pairs && gap > v.ParentIQR
	if bound > 0 {
		v.Worse = -gap > bound*math.Abs(v.ParentMed)
		// A spread wider than the bound cannot show "unchanged".
		v.Unresolved = !v.Gain && !v.Worse && v.ParentIQR > bound*math.Abs(v.ParentMed)
	}
	return v
}

func (v verdict) String() string {
	s := fmt.Sprintf("parent %.6g -> change %.6g (parent IQR %.3g), change wins %d/%d, loses %d",
		v.ParentMed, v.ChangeMed, v.ParentIQR, v.Wins, v.Pairs, v.Losses)
	switch {
	case v.Gain:
		s += "  GAIN"
	case v.Worse:
		s += "  WORSE BEYOND BOUND"
	case v.Unresolved:
		s += "  unresolved (spread wider than bound)"
	}
	return s
}

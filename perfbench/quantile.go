package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// the two closest ranks (the "exclusive" method of Python's
// statistics.quantiles is not used here: a benchmark's p99 over
// thousands of samples should read a sample, or a point between two
// adjacent samples, never extrapolate past the largest). It sorts xs in
// place. An empty input yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if !sort.Float64sAreSorted(xs) {
		sort.Float64s(xs)
	}
	if q <= 0 {
		return xs[0]
	}
	if q >= 1 {
		return xs[len(xs)-1]
	}
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(xs) {
		return xs[lo]
	}
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

// quartiles returns the first quartile, median and third quartile of xs
// exactly as Python's statistics.quantiles(xs, n=4) computes them (its
// default "exclusive" method), which is how run-to-run spread is judged.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// latencyLog holds each committed transaction's latency in µs.
type latencyLog struct {
	us []float64
}

// reset empties the log for a new phase.
func (l *latencyLog) reset() { l.us = l.us[:0] }

// add logs a transaction that began at began and has just committed.
func (l *latencyLog) add(began time.Time) {
	l.us = append(l.us, float64(time.Since(began))/1e3)
}

// latencyStats returns the exact median and p99 latency (µs) over every
// transaction the logs hold, and the sample count.
func latencyStats(logs []*latencyLog) (p50, p99 float64, n int) {
	var all []float64
	for _, l := range logs {
		all = append(all, l.us...)
	}
	return quantile(all, 0.5), quantile(all, 0.99), len(all)
}

package main

import (
	"math"
	"math/bits"
	"sort"
)

// dist summarises a sample. Val is what the metric reports; the median,
// the quartiles and the count ride alongside so a reader (and -compare)
// can see how steady the sample was inside the run.
type dist struct {
	Val, Med, Q1, Q3 float64
	N                int
}

// quantile is the linear-interpolated q-quantile of an ascending slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// sortedCopy is xs ascending, without the NaNs (trials that measured
// nothing).
func sortedCopy(xs []float64) []float64 {
	s := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsNaN(x) {
			s = append(s, x)
		}
	}
	sort.Float64s(s)
	return s
}

// describe reports the q-quantile of an ascending sample, with its
// median, quartiles and count alongside.
func describe(s []float64, q float64) dist {
	return dist{Val: quantile(s, q), Med: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: len(s)}
}

// summarize reports the median of xs.
func summarize(xs []float64) dist { return describe(sortedCopy(xs), 0.5) }

// quietest reports the most favourable trial of a sample of equal-work
// trials: the highest rate, the lowest time. The reference box shares
// its cores' sibling threads with other tenants, and their bursts
// (0.1-3 s long, present more than half of the time, up to 1.6x) can only
// slow a trial down; under noise of one sign the extreme trial is the one
// the noise missed, and it repeats where the median over trials follows
// how much of the run the neighbours had (README.md has both measured).
// It is only valid over trials that each hold all of the program's own
// periodic work, which is what spec.go sizes windowMs for. The sample's
// median, quartiles and count ride along.
func quietest(xs []float64, higherIsBetter bool) dist {
	if higherIsBetter {
		return describe(sortedCopy(xs), 1)
	}
	return describe(sortedCopy(xs), 0)
}

func median(xs []float64) float64 { return summarize(xs).Val }

// latHist is a log-linear histogram of nanosecond durations: 64 bins
// per octave (bins 1.6% wide or finer), fixed size, one increment per
// sample. A window's latencies go into one of these instead of a flat
// buffer, so no frame rate can outgrow the sample and nothing is sorted.
type latHist struct {
	n    uint64
	bins [histBins]uint32
}

const (
	histSub  = 6 // log2 of the bins per octave
	histPer  = 1 << histSub
	histBins = (1 + 31 - histSub) * histPer // durations up to 2^31 ns
)

func (h *latHist) add(ns int64) {
	v := uint64(max(ns, 0))
	i := v // below one octave of bins a bin is 1 ns
	if v >= histPer {
		e := uint(bits.Len64(v)) - histSub - 1 // v>>e is in [histPer, 2*histPer)
		i = uint64(e)*histPer + v>>e
	}
	h.bins[min(i, histBins-1)]++
	h.n++
}

func (h *latHist) merge(o *latHist) {
	h.n += o.n
	for i, c := range o.bins {
		h.bins[i] += c
	}
}

// quantile is the q-quantile in ns, interpolated inside its bin.
func (h *latHist) quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	rank := q * float64(h.n-1)
	var seen float64
	for i, c := range h.bins {
		if c == 0 || seen+float64(c) <= rank {
			seen += float64(c)
			continue
		}
		lo, width := float64(i), 1.0
		if i >= histPer {
			e := uint(i/histPer) - 1
			lo, width = float64((uint64(i%histPer)+histPer)<<e), float64(uint64(1)<<e)
		}
		return lo + width*(rank-seen+0.5)/float64(c)
	}
	return math.NaN()
}

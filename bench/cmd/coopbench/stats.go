package main

import (
	"math"
	"sort"
)

// hist is a fixed-size log-spaced histogram of positive values. Op
// latencies go here rather than into a growing slice so that the
// harness's own heap stays constant through a run and later laps see
// the same garbage collector as earlier ones.
type hist struct {
	bins [histBins]uint32
	n    int64
}

const (
	histMin   = 1e-3
	histRatio = 1.002 // bin width: 0.2 % of the value
	histBins  = 1 << 14
)

var invLogRatio = 1 / math.Log(histRatio)

func (h *hist) add(v float64) {
	i := 0
	if v > histMin {
		i = min(int(math.Log(v/histMin)*invLogRatio), histBins-1)
	}
	h.bins[i]++
	h.n++
}

// quantile returns the q-quantile, interpolated inside its bin.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1)
	seen := 0.0
	for i, c := range h.bins {
		if c == 0 {
			continue
		}
		if next := seen + float64(c); rank < next {
			frac := (rank - seen + 0.5) / float64(c)
			return histMin * math.Pow(histRatio, float64(i)+frac)
		} else {
			seen = next
		}
	}
	return histMin * math.Pow(histRatio, histBins)
}

// median of a sample; 0 for an empty one. The input is not modified.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// cv is the coefficient of variation (sample standard deviation over
// the mean).
func cv(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	m := mean(v)
	ss := 0.0
	for _, x := range v {
		ss += (x - m) * (x - m)
	}
	return math.Sqrt(ss/float64(len(v)-1)) / m
}

package main

import (
	"math"
	"time"
)

// Latency histogram geometry: buckets grow by histGrowth from histMin, so a
// quantile read from one is within 1% of the exact order statistic, and
// histBuckets of them reach past 15 minutes.
const (
	histMin     = time.Microsecond
	histGrowth  = 1.01
	histBuckets = 2100
)

var logGrowth = math.Log(histGrowth)

// hist counts durations in log-spaced buckets. It has a fixed size, so a
// window's latency accounting takes the same memory however many ops it
// completes.
type hist struct {
	counts   [histBuckets]uint32
	n        int
	min, max time.Duration
}

func bucketOf(d time.Duration) int {
	if d < histMin {
		return 0
	}
	return min(int(math.Log(float64(d)/float64(histMin))/logGrowth), histBuckets-1)
}

// bucketLow is the lower edge of bucket i.
func bucketLow(i int) float64 { return float64(histMin) * math.Pow(histGrowth, float64(i)) }

func (h *hist) add(d time.Duration) {
	if h.n == 0 || d < h.min {
		h.min = d
	}
	if h.n == 0 || d > h.max {
		h.max = d
	}
	h.counts[bucketOf(d)]++
	h.n++
}

// quantileMs returns the q-quantile in ms, interpolating by rank inside the
// bucket that holds it and clamping to the observed extremes. It returns 0
// for an empty histogram.
func (h *hist) quantileMs(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1)
	seen := 0.0
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if rank < seen+float64(c) {
			lo, hi := bucketLow(i), bucketLow(i+1)
			v := lo + (hi-lo)*(rank-seen+0.5)/float64(c)
			v = math.Min(math.Max(v, float64(h.min)), float64(h.max))
			return v / float64(time.Millisecond)
		}
		seen += float64(c)
	}
	return float64(h.max) / float64(time.Millisecond)
}

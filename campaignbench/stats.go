package main

import (
	"sort"

	"repro/internal/metrics"
)

// median returns the median of xs, 0 when empty.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics, 0 when empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// ratio is n/d, 0 when d is 0.
func ratio(n, d float64) float64 {
	if d == 0 {
		return 0
	}
	return n / d
}

// hist merges histogram snapshots that share the default latency bucket
// layout, as the pipeline and harness instruments all do.
type hist struct {
	count    int64
	min, max int64
	buckets  map[int64]int64 // upper bound (-1 = +Inf) → count
}

func (h *hist) add(s metrics.HistogramSnapshot) {
	if s.Count == 0 {
		return
	}
	if h.buckets == nil {
		h.buckets = map[int64]int64{}
		h.min, h.max = s.Min, s.Max
	}
	h.count += s.Count
	h.min = min(h.min, s.Min)
	h.max = max(h.max, s.Max)
	for _, b := range s.Buckets {
		h.buckets[b.LE] += b.N
	}
}

// quantile estimates the q-quantile by linear interpolation inside the
// bucket that holds it, clamped to the observed min and max; 0 when
// empty.
func (h *hist) quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	bounds := metrics.DefaultLatencyBounds()
	rank := q * float64(h.count)
	var cum int64
	lower := int64(0)
	for i := 0; i <= len(bounds); i++ {
		upper := h.max
		if i < len(bounds) {
			upper = bounds[i]
		}
		le := int64(-1)
		if i < len(bounds) {
			le = bounds[i]
		}
		n := h.buckets[le]
		if n > 0 && float64(cum+n) >= rank {
			lo, hi := float64(max(lower, h.min)), float64(min(upper, h.max))
			if hi < lo {
				hi = lo
			}
			return lo + (hi-lo)*(rank-float64(cum))/float64(n)
		}
		cum += n
		lower = upper
	}
	return float64(h.max)
}

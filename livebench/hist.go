package main

import (
	"math"
	"math/bits"
	"sort"
)

// Latency histogram: log-linear buckets over nanoseconds, 128 linear
// sub-buckets per power of two (≤0.8% relative width), fixed size so the
// load generator records a sample with one index computation and one
// increment and never allocates.
const (
	subBits    = 7
	subBuckets = 1 << subBits
	maxExp     = 40 // values clamp at 2^40 ns (~18 minutes)
	nBuckets   = (maxExp - subBits + 2) * subBuckets
)

type hist struct {
	counts [nBuckets]uint32
	n      uint64
}

func bucketOf(v uint64) int {
	if v < subBuckets {
		return int(v)
	}
	e := bits.Len64(v) - subBits - 1 // v>>e lands in [128, 256)
	if e > maxExp-subBits {
		return nBuckets - 1
	}
	return (e+1)*subBuckets + int(v>>uint(e)) - subBuckets
}

// bucketBounds returns the half-open value range [lo, hi) of bucket i.
func bucketBounds(i int) (lo, hi float64) {
	if i < subBuckets {
		return float64(i), float64(i + 1)
	}
	e := i/subBuckets - 1
	m := uint64(i%subBuckets + subBuckets)
	return float64(m << uint(e)), float64((m + 1) << uint(e))
}

func (h *hist) record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[bucketOf(uint64(ns))]++
	h.n++
}

// quantile returns the q-quantile in nanoseconds, interpolated linearly
// inside the bucket that holds the target rank. NaN when empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	target := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= target {
			lo, hi := bucketBounds(i)
			return lo + (hi-lo)*(target-cum)/float64(c)
		}
		cum += float64(c)
	}
	lo, _ := bucketBounds(nBuckets - 1)
	return lo
}

// supported reports whether the q-quantile of n samples has at least ten
// samples beyond it — the rule for reporting a tail percentile at all.
func supported(n uint64, q float64) bool {
	return float64(n)*(1-q) >= 10-1e-9 // tolerate 1-q's rounding (1-0.9 < 0.1)
}

// median of a slice (copied, not reordered). NaN when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

package obs

import (
	"math/bits"
	"time"
)

// histBuckets is the number of power-of-two latency buckets. Bucket i counts
// durations d (in nanoseconds) with bits.Len64(d) == i, i.e. bucket 0 holds
// d == 0 and bucket i (i >= 1) holds [2^(i-1), 2^i). 64 buckets cover every
// representable duration.
const histBuckets = 65

// Histogram is a log-bucketed latency histogram. Bucketing uses integer bit
// arithmetic only, so bucket boundaries are identical on every platform —
// there is no floating-point log whose rounding could move an observation
// across a boundary.
type Histogram struct {
	Name    string
	Buckets [histBuckets]uint64
	Count   uint64
	Sum     time.Duration
	Min     time.Duration
	Max     time.Duration
}

// bucketOf returns the bucket index for a duration.
func bucketOf(d time.Duration) int {
	if d < 0 {
		d = 0
	}
	return bits.Len64(uint64(d))
}

// BucketBound returns the inclusive upper bound of bucket i (the largest
// duration it can hold).
func BucketBound(i int) time.Duration {
	if i <= 0 {
		return 0
	}
	if i >= 64 {
		return time.Duration(^uint64(0) >> 1)
	}
	return time.Duration(uint64(1)<<uint(i) - 1)
}

// Observe adds one duration to the histogram.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	if h.Count == 0 || d < h.Min {
		h.Min = d
	}
	if d > h.Max {
		h.Max = d
	}
	h.Count++
	h.Sum += d
	h.Buckets[bucketOf(d)]++
}

// Mean returns the arithmetic mean of the observations.
func (h *Histogram) Mean() time.Duration {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / time.Duration(h.Count)
}

// Quantile returns an upper bound for the q-quantile (0 < q <= 1): the
// upper boundary of the bucket in which the q-th observation falls, except
// for the last occupied bucket where the recorded maximum is tighter. The
// rank is computed with integer arithmetic so the answer is stable across
// platforms.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.Count == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min
	}
	if q >= 1 {
		return h.Max
	}
	// rank = ceil(q * Count), clamped to [1, Count].
	rank := uint64(q * float64(h.Count))
	if float64(rank) < q*float64(h.Count) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	if rank > h.Count {
		rank = h.Count
	}
	var seen uint64
	for i := 0; i < histBuckets; i++ {
		seen += h.Buckets[i]
		if seen >= rank {
			bound := BucketBound(i)
			if bound > h.Max {
				bound = h.Max
			}
			if bound < h.Min {
				bound = h.Min
			}
			return bound
		}
	}
	return h.Max
}

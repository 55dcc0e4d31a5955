package main

import (
	"math"
	"math/bits"
	"time"
)

// Hist is a fixed log-linear latency histogram over nanoseconds. Each
// power of two is split into histSub linear buckets, so a recorded value
// lands in a bucket no wider than 1/histSub of its magnitude, and a
// quantile read from its bucket is within that share of the exact sample.
// Recording never allocates: the buckets are a fixed array.
//
// Failed or refused operations are not latencies; Fail counts them in an
// overflow bucket that sorts above every finite value, so a quantile that
// reaches into them reads +Inf — over any latency limit.
type Hist struct {
	counts [histBuckets]uint64
	failed uint64
	n      uint64 // recorded (non-failed) samples
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	histMaxExp  = 42 // 2^42 ns ≈ 73 min; larger values clamp to the top bucket
	histBuckets = histSub + (histMaxExp-histSubBits)*histSub
)

func histIndex(v int64) int {
	if v < histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1 // v in [2^e, 2^(e+1))
	if e >= histMaxExp {
		return histBuckets - 1
	}
	shift := e - histSubBits
	sub := int(v>>shift) - histSub
	return histSub + shift*histSub + sub
}

// histBounds returns bucket i's lower edge and width, in ns.
func histBounds(i int) (lo, width float64) {
	if i < histSub {
		return float64(i), 1
	}
	shift := (i - histSub) / histSub
	sub := (i - histSub) % histSub
	return float64(int64(histSub+sub) << shift), float64(int64(1) << shift)
}

// Record adds one latency sample.
func (h *Hist) Record(d time.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	h.counts[histIndex(v)]++
	h.n++
}

// Fail counts one failed or refused operation above every limit.
func (h *Hist) Fail() { h.failed++ }

// Merge adds o's samples into h.
func (h *Hist) Merge(o *Hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.failed += o.failed
	h.n += o.n
}

// Count returns the number of recorded samples, failures excluded.
func (h *Hist) Count() uint64 { return h.n }

// Failed returns the number of failed operations.
func (h *Hist) Failed() uint64 { return h.failed }

// Quantile returns the q-quantile (0 < q <= 1) in ns over recorded and
// failed operations together: the sample of rank ceil(q·total), placed
// within its bucket by linear interpolation on rank; +Inf when that rank
// falls among the failures, and 0 when the histogram is empty.
func (h *Hist) Quantile(q float64) float64 {
	total := h.n + h.failed
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		return math.Inf(1)
	}
	var seen uint64
	for i, c := range h.counts {
		if seen+c >= rank {
			lo, width := histBounds(i)
			return lo + width*(float64(rank-seen)-0.5)/float64(c)
		}
		seen += c
	}
	return math.Inf(1) // unreachable: rank <= n
}

// Package obs is the zero-overhead telemetry layer: sampled decision
// logging and per-stage latency histograms for the admission engine and
// the networked service, the sink plumbing that ships both off the hot
// path, and the Prometheus text rendering every /metrics writer shares.
//
// Everything here is built around one constraint carried over from the
// engine (DESIGN.md §13): steady-state ingestion must stay at zero
// allocations per element with telemetry ENABLED. The package therefore
// uses no client library and no locks on any recording path:
//
//   - Histogram is a fixed array of power-of-two buckets bumped with one
//     atomic add per observation; recording never allocates and scraping
//     is a plain read of the counters.
//   - The decision log samples with a shard-local countdown (a branch and
//     a decrement per element) and writes sampled records into bounded
//     per-shard single-producer rings whose slots are preallocated. A
//     single drainer goroutine flushes the rings asynchronously into a
//     bounded per-instance tail (served by GET
//     /v1/instances/{id}/decisions) and an optional pluggable Sink; when
//     a ring is full the record is dropped and counted, never blocking
//     the shard.
//
// The serve layer owns one DecisionLog and one Histogram per pipeline
// stage for the whole process; engines attach through EngineTelemetry.
package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram bucket layout: bucket i counts observations with duration
// <= 2^(histMinShift+i) nanoseconds; observations above the last bound
// land in the overflow (+Inf) bucket. 128 ns .. ~17 s covers everything
// from a single batch decide to a stalled request.
const (
	histMinShift = 7  // first upper bound: 2^7 ns = 128 ns
	histMaxShift = 34 // last finite upper bound: 2^34 ns ≈ 17.2 s
	// HistogramBuckets is the number of finite buckets.
	HistogramBuckets = histMaxShift - histMinShift + 1
)

// Histogram is a fixed power-of-two-bucket latency histogram: one atomic
// add per Observe, no locks, no allocations, safe for any number of
// concurrent writers and readers. The zero value is ready to use.
type Histogram struct {
	buckets  [HistogramBuckets + 1]atomic.Uint64 // last slot is the +Inf overflow
	count    atomic.Uint64
	sumNanos atomic.Uint64
}

// Observe records one duration. Negative durations (possible only under
// wall-clock steps) clamp to zero.
func (h *Histogram) Observe(d time.Duration) {
	n := uint64(d)
	if d < 0 {
		n = 0
	}
	h.buckets[bucketOf(n)].Add(1)
	h.count.Add(1)
	h.sumNanos.Add(n)
}

// bucketOf returns the index of the smallest bucket whose upper bound
// holds n nanoseconds: ceil(log2(n)) clamped to the bucket range. The
// whole computation is a bit-length intrinsic and two comparisons.
func bucketOf(n uint64) int {
	if n <= 1<<histMinShift {
		return 0
	}
	idx := bits.Len64(n-1) - histMinShift // ceil(log2(n)) - histMinShift
	if idx > HistogramBuckets {
		return HistogramBuckets // +Inf
	}
	return idx
}

// BucketBound returns the upper bound of finite bucket i in seconds —
// the `le` label value of the rendered Prometheus series.
func BucketBound(i int) float64 {
	return float64(uint64(1)<<(histMinShift+i)) * 1e-9
}

// HistogramSnapshot is a point-in-time copy of a Histogram. Buckets are
// per-bucket (not cumulative) counts; Prometheus rendering accumulates.
type HistogramSnapshot struct {
	Buckets [HistogramBuckets + 1]uint64 // last slot is the +Inf overflow
	Count   uint64
	SumSecs float64
}

// Snapshot reads the counters. Concurrent Observes may land between
// field reads; each counter is individually exact.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	s.Count = h.count.Load()
	s.SumSecs = float64(h.sumNanos.Load()) * 1e-9
	return s
}

// Quantile returns an upper bound on the q-quantile (0 < q <= 1) of the
// observed durations: the upper bound of the bucket holding the q·Count
// ranked observation. Zero if nothing was observed; +Inf observations
// report the last finite bound.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	rank := uint64(q * float64(s.Count))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range s.Buckets {
		cum += c
		if cum >= rank {
			if i > HistogramBuckets-1 {
				i = HistogramBuckets - 1
			}
			return time.Duration(uint64(1) << (histMinShift + i))
		}
	}
	return time.Duration(uint64(1) << histMaxShift)
}

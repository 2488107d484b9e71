package engine

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// Metrics is the engine's live instrumentation: lock-free counters updated
// once per batch or batch part on both sides of the channel — the submit
// side publishes submitted counts when a batch is dispatched to the
// shards, the shard side publishes processed/assigned/dropped after
// deciding a part. No counter is touched per element. Read a
// consistent-enough view with Snapshot at any time during or after the
// stream.
type Metrics struct {
	startedAt time.Time

	submitted atomic.Uint64 // elements dispatched to shards (published per batch)
	processed atomic.Uint64 // elements decided by shard workers (published per part)
	batches   atomic.Uint64 // batches decided, each counted once by its last part
	assigned  atomic.Uint64 // element→set assignments made
	dropped   atomic.Uint64 // memberships denied (packets dropped)

	completedSets   atomic.Int64  // set at Drain
	completedWeight atomic.Uint64 // float64 bits, set at Drain
	elapsedNanos    atomic.Int64  // pinned at Drain, 0 while streaming
}

func (m *Metrics) start() { m.startedAt = time.Now() }

// observePart publishes one decided batch part's counters; last marks
// the batch's final part, which counts the batch. The batch is counted
// before processed grows, so a reader that sees every submitted element
// processed (Checkpoint's quiesce) also sees every batch counted.
func (m *Metrics) observePart(elements, assigned, dropped uint64, last bool) {
	if last {
		m.batches.Add(1)
	}
	m.processed.Add(elements)
	m.assigned.Add(assigned)
	m.dropped.Add(dropped)
}

// finish records the drain-time completion totals and pins the stream's
// elapsed time, so post-drain snapshots (and the metrics series derived
// from them — osp_engine_elapsed_seconds, elements_per_second) are
// stable instead of drifting with the wall clock on every scrape.
func (m *Metrics) finish(res *core.Result) {
	m.completedSets.Store(int64(len(res.Completed)))
	m.completedWeight.Store(math.Float64bits(res.Benefit))
	if d := int64(time.Since(m.startedAt)); d > 0 {
		m.elapsedNanos.Store(d)
	} else {
		m.elapsedNanos.Store(1) // clamp: pinned means nonzero
	}
}

// Snapshot is a point-in-time copy of the counters with derived rates.
type Snapshot struct {
	// Submitted counts elements dispatched to shards (published once per
	// batch, so elements still buffering in a partial batch are not yet
	// visible); Processed counts elements already decided by a shard.
	// Submitted−Processed is the queued-batch backlog.
	Submitted, Processed uint64
	// Batches is the number of batches the shards have decided; a batch
	// split across shards counts once.
	Batches uint64
	// Assigned is the total element→set assignments made; Dropped is the
	// memberships denied — in the router reading, packets dropped.
	Assigned, Dropped uint64
	// CompletedSets and CompletedWeight are the drain-time completion
	// totals (zero while the stream is open).
	CompletedSets   int
	CompletedWeight float64
	// Elapsed is time since New, frozen at Drain.
	Elapsed time.Duration
	// ElementsPerSec is Processed/Elapsed.
	ElementsPerSec float64
}

// Snapshot reads the counters. Safe to call concurrently with the stream;
// the counters are individually atomic (a snapshot mid-batch may be
// momentarily out of sync across fields by one batch).
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{
		Submitted:       m.submitted.Load(),
		Processed:       m.processed.Load(),
		Batches:         m.batches.Load(),
		Assigned:        m.assigned.Load(),
		Dropped:         m.dropped.Load(),
		CompletedSets:   int(m.completedSets.Load()),
		CompletedWeight: math.Float64frombits(m.completedWeight.Load()),
	}
	if d := m.elapsedNanos.Load(); d != 0 {
		s.Elapsed = time.Duration(d)
	} else {
		s.Elapsed = time.Since(m.startedAt)
	}
	if secs := s.Elapsed.Seconds(); secs > 0 {
		s.ElementsPerSec = float64(s.Processed) / secs
	}
	return s
}

// String formats the snapshot as a one-line report.
func (s Snapshot) String() string {
	return fmt.Sprintf("elements=%d rate=%.0f/s assigned=%d dropped=%d completed=%d weight=%.1f",
		s.Processed, s.ElementsPerSec, s.Assigned, s.Dropped, s.CompletedSets, s.CompletedWeight)
}

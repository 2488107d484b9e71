package engine

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/core"
)

// Checkpoint/restore: because every policy is pure in (Info, seed), the
// only run-state an engine accumulates is integer per-set assigned
// counts plus the stream counters. Checkpoint quiesces in-flight
// batches and reads them; NewFromCheckpoint rebuilds the frozen policy
// state from scratch and resumes counting from that baseline. The
// restored engine's eventual Drain is bit-for-bit identical to the
// uninterrupted engine's — counts are exact integer sums that commute
// across the crash boundary, and the completion sweep is deterministic.

// Checkpoint is an engine's full recoverable run state at a quiesced
// moment, ready to be framed by wire.WriteSnapshot and later handed to
// NewFromCheckpoint.
type Checkpoint struct {
	// Submitted, Processed, Batches, AssignedTotal, Dropped mirror the
	// stream counters. Submitted == Processed always: the checkpoint
	// waits out the in-flight backlog before reading.
	Submitted, Processed, Batches, AssignedTotal, Dropped uint64
	// Assigned is the per-set assigned count, summed across shards (and
	// any prior restore baseline).
	Assigned []int32
	// Final marks a drained engine; restoring one re-derives its
	// terminal Result instead of reopening the stream.
	Final bool
}

// Checkpoint quiesces the engine and captures its recoverable state.
// It flushes the partial ingestion batch, waits (bounded by ctx) until
// the shards have decided every submitted element, then merges the
// counters as Drain does. The engine keeps streaming afterwards — a
// checkpoint is a read, not a drain.
//
// Like Submit and Drain, Checkpoint must be called from the (fenced)
// submitter side: no Submit or SubmitBatch may run concurrently, or the
// quiesce point is meaningless. Reading the shard-local counts without
// locks is safe because each shard publishes its part's counts to the
// processed counter with an atomic add AFTER writing them — the
// processed.Load that observes the final part orders those writes
// before the reads here.
func (e *Engine) Checkpoint(ctx context.Context) (*Checkpoint, error) {
	if State(e.state.Load()) == StateDrained {
		// A drained engine's state is its final result — already merged,
		// swept and pinned. Report it as a terminal checkpoint.
		m := e.Metrics().Snapshot()
		cp := &Checkpoint{
			Submitted:     m.Submitted,
			Processed:     m.Processed,
			Batches:       m.Batches,
			AssignedTotal: m.Assigned,
			Dropped:       m.Dropped,
			Assigned:      make([]int32, len(e.result.Assigned)),
			Final:         true,
		}
		copy(cp.Assigned, e.result.Assigned)
		return cp, nil
	}
	e.flush()
	target := e.metrics.submitted.Load()
	for e.metrics.processed.Load() != target {
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("engine: checkpoint quiesce: %w", ctx.Err())
		case <-time.After(50 * time.Microsecond):
		}
	}
	return &Checkpoint{
		Submitted:     target,
		Processed:     target,
		Batches:       e.metrics.batches.Load(),
		AssignedTotal: e.metrics.assigned.Load(),
		Dropped:       e.metrics.dropped.Load(),
		Assigned:      e.counts(),
	}, nil
}

// NewFromCheckpoint builds an engine that resumes from a checkpoint:
// the policy's frozen decision state is rebuilt from (info, cfg.Policy,
// seed) — pure, so identical to the crashed engine's — and the
// checkpointed per-set counts become the engine's carry, which Drain
// merges with the new shards' counts. The stream counters resume from
// their checkpointed values so rates and totals survive the restart.
//
// The restored engine starts in StateStreaming when the checkpoint had
// submitted elements (the stream is mid-flight by definition), StateIdle
// otherwise. Restoring a Final checkpoint yields a streaming engine
// too — callers that want the terminal state back simply Drain it
// immediately; the drain merges the baseline and reproduces the exact
// Result the crashed engine reported.
func NewFromCheckpoint(info core.Info, seed uint64, cfg Config, cp *Checkpoint) (*Engine, error) {
	if len(cp.Assigned) != info.NumSets() {
		return nil, fmt.Errorf("engine: checkpoint covers %d sets, info declares %d", len(cp.Assigned), info.NumSets())
	}
	if cp.Submitted != cp.Processed {
		return nil, fmt.Errorf("engine: checkpoint not quiesced: submitted %d, processed %d", cp.Submitted, cp.Processed)
	}
	e, err := New(info, seed, cfg)
	if err != nil {
		return nil, err
	}
	e.carryOnce.Do(func() { e.carry = slices.Clone(cp.Assigned) })
	e.metrics.submitted.Store(cp.Submitted)
	e.metrics.processed.Store(cp.Processed)
	e.metrics.batches.Store(cp.Batches)
	e.metrics.assigned.Store(cp.AssignedTotal)
	e.metrics.dropped.Store(cp.Dropped)
	if cp.Submitted > 0 {
		e.state.Store(int32(StateStreaming))
	}
	return e, nil
}

// Config returns the engine's resolved configuration — what a snapshot
// must record so a restore rebuilds identical sizing.
func (e *Engine) Config() Config { return e.cfg }

// Info returns the engine's up-front information (per-set weights and
// sizes). The slices are read-only after New; do not mutate.
func (e *Engine) Info() core.Info { return e.info }

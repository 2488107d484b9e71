package engine

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/setsystem"
	"repro/internal/workload"
)

// TestCheckpointRestoreMatchesOracle is the crash-recovery conformance
// suite: for every registered policy, ingest half the stream, checkpoint,
// throw the engine away (the "crash"), restore a fresh engine from the
// checkpoint, ingest the rest, and require the final Result bit-for-bit
// equal to the uninterrupted serial oracle.
func TestCheckpointRestoreMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	inst, err := workload.Uniform(workload.UniformConfig{
		M: 60, N: 3000, Load: 5, Capacity: 2,
		WeightFn: func(i int) float64 { return 1 + float64(i%7) },
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	const seed = 777
	half := len(inst.Elements) / 2
	for _, name := range core.PolicyNames() {
		pol, err := core.LookupPolicy(name)
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.Run(inst, &core.PolicyAlgorithm{Policy: pol, Seed: seed}, nil)
		if err != nil {
			t.Fatalf("%s: serial oracle: %v", name, err)
		}

		cfg := Config{Shards: 4, BatchSize: 32, Policy: name}
		e1, err := New(core.InfoOf(inst), seed, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, el := range inst.Elements[:half] {
			if err := e1.Submit(el); err != nil {
				t.Fatal(err)
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		cp, err := e1.Checkpoint(ctx)
		cancel()
		if err != nil {
			t.Fatalf("%s: Checkpoint: %v", name, err)
		}
		if cp.Submitted != uint64(half) || cp.Processed != uint64(half) {
			t.Fatalf("%s: checkpoint counters submitted=%d processed=%d, want %d (quiesced, partial batch flushed)",
				name, cp.Submitted, cp.Processed, half)
		}
		if cp.Final {
			t.Fatalf("%s: streaming checkpoint marked Final", name)
		}
		// Crash: stop the old engine's shards without consulting it again.
		if _, err := e1.Drain(); err != nil {
			t.Fatal(err)
		}

		e2, err := NewFromCheckpoint(core.InfoOf(inst), seed, cfg, cp)
		if err != nil {
			t.Fatalf("%s: NewFromCheckpoint: %v", name, err)
		}
		if got := e2.State(); got != StateStreaming {
			t.Fatalf("%s: restored state = %v, want streaming", name, got)
		}
		for _, el := range inst.Elements[half:] {
			if err := e2.Submit(el); err != nil {
				t.Fatal(err)
			}
		}
		got, err := e2.Drain()
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Errorf("%s: restored drain (benefit %v) differs from uninterrupted oracle (benefit %v)",
				name, got.Benefit, want.Benefit)
		}
		if m := e2.Metrics().Snapshot(); m.Submitted != uint64(len(inst.Elements)) {
			t.Errorf("%s: restored counters submitted=%d, want %d (resumed, not reset)",
				name, m.Submitted, len(inst.Elements))
		}
	}
}

// TestCheckpointIsAReadNotADrain pins that an engine keeps accepting
// elements after a checkpoint and that a later checkpoint sees the
// additional counts.
func TestCheckpointIsAReadNotADrain(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	inst, err := workload.Uniform(workload.UniformConfig{M: 20, N: 500, Load: 4, Capacity: 2}, rng)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(core.InfoOf(inst), 3, Config{Shards: 2, BatchSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	for _, el := range inst.Elements[:200] {
		if err := e.Submit(el); err != nil {
			t.Fatal(err)
		}
	}
	cp1, err := e.Checkpoint(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if e.State() != StateStreaming {
		t.Fatalf("state after checkpoint = %v, want streaming", e.State())
	}
	for _, el := range inst.Elements[200:] {
		if err := e.Submit(el); err != nil {
			t.Fatal(err)
		}
	}
	cp2, err := e.Checkpoint(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if cp1.Submitted != 200 || cp2.Submitted != uint64(len(inst.Elements)) {
		t.Fatalf("checkpoint counters %d then %d, want 200 then %d", cp1.Submitted, cp2.Submitted, len(inst.Elements))
	}
	pol, err := core.LookupPolicy(core.DefaultPolicy)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Run(inst, &core.PolicyAlgorithm{Policy: pol, Seed: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Error("drain after two checkpoints differs from oracle")
	}
}

// TestCheckpointOnDrainedEngine pins the terminal form: checkpointing a
// drained engine yields Final=true and the result's counts, and a
// restore + immediate drain reproduces the exact Result.
func TestCheckpointOnDrainedEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	inst, err := workload.Uniform(workload.UniformConfig{M: 20, N: 400, Load: 4, Capacity: 2}, rng)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Shards: 2, BatchSize: 16}
	e, err := New(core.InfoOf(inst), 9, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, el := range inst.Elements {
		if err := e.Submit(el); err != nil {
			t.Fatal(err)
		}
	}
	want, err := e.Drain()
	if err != nil {
		t.Fatal(err)
	}
	cp, err := e.Checkpoint(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !cp.Final {
		t.Fatal("drained checkpoint not marked Final")
	}
	e2, err := NewFromCheckpoint(core.InfoOf(inst), 9, cfg, cp)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e2.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Error("restored terminal drain differs from original Result")
	}
}

// TestNewFromCheckpointRejectsMismatch pins the restore guards.
func TestNewFromCheckpointRejectsMismatch(t *testing.T) {
	info := core.Info{Weights: []float64{1, 2}, Sizes: []int{1, 2}}
	if _, err := NewFromCheckpoint(info, 1, Config{Shards: 1}, &Checkpoint{Assigned: make([]int32, 3)}); err == nil {
		t.Error("NewFromCheckpoint accepted a checkpoint over the wrong set count")
	}
	if _, err := NewFromCheckpoint(info, 1, Config{Shards: 1}, &Checkpoint{
		Assigned: make([]int32, 2), Submitted: 5, Processed: 3,
	}); err == nil {
		t.Error("NewFromCheckpoint accepted a non-quiesced checkpoint")
	}
}

// TestCountsPastAByteStayExact pins the byte counters' carry. Set 0 is
// the one member of 3000 unit elements, so it is assigned every one of
// them and completes only on an exact count, while its shard-local byte
// counters wrap several times on every shard. Replay on 1 and 3 shards,
// and a checkpoint taken after wraps, restored and finished, all drain
// equal to the serial oracle. The carry exists only once a count has
// wrapped, and wrapping past that allocates nothing.
func TestCountsPastAByteStayExact(t *testing.T) {
	rng := rand.New(rand.NewSource(256))
	var b setsystem.Builder
	for i := 0; i < 12; i++ {
		b.AddSet(1 + float64(i%3))
	}
	for i := 0; i < 4000; i++ {
		if i%4 != 3 {
			b.AddElementCap(1, 0)
			continue
		}
		b.AddElementCap(2, 1, setsystem.SetID(2+rng.Intn(10)), setsystem.SetID(2+rng.Intn(10)))
	}
	inst := b.MustBuild()
	const seed = 9
	want := serial(t, inst, seed)
	if want.Assigned[0] != 3000 || !slices.Contains(want.Completed, 0) {
		t.Fatalf("set 0: %d assignments, completed %v; the instance no longer wraps a byte", want.Assigned[0], want.Completed)
	}
	for _, shards := range []int{1, 3} {
		got, err := Replay(inst, seed, Config{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		checkEquivalent(t, got, want, fmt.Sprintf("replay on %d shards", shards))
	}

	cfg := Config{Shards: 2, BatchSize: 32, QueueDepth: 4}
	e1, err := New(core.InfoOf(inst), seed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	submit := func(e *Engine, n int) {
		for end := min(next+n, len(inst.Elements)); next < end; next++ {
			if err := e.Submit(inst.Elements[next]); err != nil {
				t.Fatal(err)
			}
		}
	}
	checkpoint := func(e *Engine) *Checkpoint {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		cp, err := e.Checkpoint(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return cp
	}
	submit(e1, 256) // 192 assignments to set 0: no count can wrap
	checkpoint(e1)
	if e1.carry != nil {
		t.Fatal("carry allocated before any count wrapped")
	}
	submit(e1, 1600-next)
	if allocs := testing.AllocsPerRun(20, func() { submit(e1, 32) }); allocs != 0 {
		t.Errorf("ingestion with wrapping counts: %v allocs per 32 elements, want 0", allocs)
	}
	cp := checkpoint(e1)
	if e1.carry == nil {
		t.Fatalf("no carry after %d assignments to set 0 on 2 shards", cp.Assigned[0])
	}
	if _, err := e1.Drain(); err != nil { // the crash
		t.Fatal(err)
	}
	e2, err := NewFromCheckpoint(core.InfoOf(inst), seed, cfg, cp)
	if err != nil {
		t.Fatal(err)
	}
	submit(e2, len(inst.Elements))
	got, err := e2.Drain()
	if err != nil {
		t.Fatal(err)
	}
	checkEquivalent(t, got, want, "checkpoint after wraps, restored")
}

package engine

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/setsystem"
	"repro/internal/workload"
)

// telemetryFor builds a full telemetry bundle — decision logger, queue-
// wait and decide histograms — registered with a fresh decision log.
func telemetryFor(t *testing.T, cfg obs.DecisionLogConfig, instance string, shards int) (*obs.DecisionLog, *obs.EngineTelemetry) {
	t.Helper()
	dlog := obs.NewDecisionLog(cfg)
	tel := &obs.EngineTelemetry{
		Decisions: dlog.Logger(instance, "randpr", shards),
		QueueWait: new(obs.Histogram),
		Decide:    new(obs.Histogram),
	}
	return dlog, tel
}

// TestSteadyStateZeroAllocTelemetry is TestSteadyStateZeroAlloc with the
// full telemetry stack attached — decision-log sampling (every 2nd
// element, so the record path runs constantly), queue-wait and decide
// histograms, and the drainer goroutine flushing concurrently. The
// telemetry layer's contract is that all of it is free: steady-state
// ingestion must still be exactly 0 allocs/element. AllocsPerRun counts
// process-wide mallocs, so this also proves the drainer's flush path
// (tail append, no sink) allocates nothing.
func TestSteadyStateZeroAllocTelemetry(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	inst, err := workload.Uniform(workload.UniformConfig{M: 100, N: 4000, Load: 6, Capacity: 2}, rng)
	if err != nil {
		t.Fatal(err)
	}
	const batchSize = 64
	dlog, tel := telemetryFor(t, obs.DecisionLogConfig{
		SampleEvery: 2,
		RingSize:    256,
		FlushEvery:  time.Millisecond, // keep the drainer hot during the measurement
	}, "alloc-test", 2)
	defer dlog.Close()

	e, err := New(core.InfoOf(inst), 5, Config{Shards: 2, BatchSize: batchSize, QueueDepth: 4, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Drain()

	// Warm up: cycle every pre-filled batch through the shards so member
	// buffers, shard scratch and the decision tail reach their high-water
	// capacity.
	warm := inst.Elements[:2048]
	for _, el := range warm {
		if err := e.Submit(el); err != nil {
			t.Fatal(err)
		}
	}
	dlog.Flush()

	rest := inst.Elements[2048:]
	pos := 0
	allocs := testing.AllocsPerRun(20, func() {
		for i := 0; i < batchSize; i++ {
			if err := e.Submit(rest[pos%len(rest)]); err != nil {
				t.Fatal(err)
			}
			pos++
		}
	})
	perElement := allocs / batchSize
	if perElement != 0 {
		t.Errorf("telemetry-enabled ingestion: %v allocs/element (%v per batch), want 0", perElement, allocs)
	}
	if c := tel.Decide.Snapshot().Count; c == 0 {
		t.Error("decide histogram observed nothing; telemetry was not attached")
	}
}

// TestDecisionLogMatchesOracle replays an instance with every decision
// sampled and checks each flushed record against the policy oracle: for
// the element at the recorded global index, the verdict bitmask, member
// count and admitted count must match what the frozen policy state
// decides for that element. This pins the whole sampled pipeline —
// global index threading through batches, the pre-decide member copy,
// and the merge-scan mask — to the policy contract.
func TestDecisionLogMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	inst, err := workload.Uniform(workload.UniformConfig{M: 80, N: 3000, Load: 5, Capacity: 2}, rng)
	if err != nil {
		t.Fatal(err)
	}
	sink := new(obs.MemorySink)
	dlog := obs.NewDecisionLog(obs.DecisionLogConfig{
		SampleEvery: 1,
		RingSize:    1 << 15, // larger than the stream: nothing may drop
		Sink:        sink,
	})
	tel := &obs.EngineTelemetry{Decisions: dlog.Logger("oracle", "randpr", 3)}

	e, err := New(core.InfoOf(inst), 42, Config{Shards: 3, BatchSize: 32, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	for _, el := range inst.Elements {
		if err := e.Submit(el); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := dlog.Close(); err != nil {
		t.Fatal(err)
	}

	decs := sink.Decisions()
	if len(decs) != len(inst.Elements) {
		flushed, dropped := dlog.Stats()
		t.Fatalf("sampled %d decisions for %d elements (flushed=%d dropped=%d)",
			len(decs), len(inst.Elements), flushed, dropped)
	}
	seen := make(map[uint64]bool, len(decs))
	var buf []setsystem.SetID
	for _, d := range decs {
		if seen[d.Element] {
			t.Fatalf("element %d recorded twice", d.Element)
		}
		seen[d.Element] = true
		if d.Element >= uint64(len(inst.Elements)) {
			t.Fatalf("element index %d out of range", d.Element)
		}
		el := inst.Elements[d.Element]
		buf = e.Policy().Decide(el.Members, el.Capacity, buf)
		if int(d.Members) != len(el.Members) {
			t.Fatalf("element %d: recorded %d members, has %d", d.Element, d.Members, len(el.Members))
		}
		if int(d.Admitted) != len(buf) {
			t.Fatalf("element %d: recorded %d admitted, oracle admits %d", d.Element, d.Admitted, len(buf))
		}
		var want uint64
		j := 0
		for i, m := range el.Members {
			if i >= 64 {
				break
			}
			if j < len(buf) && m == buf[j] {
				want |= 1 << uint(i)
				j++
			}
		}
		if d.Verdict != want {
			t.Fatalf("element %d: verdict mask %#x, oracle %#x", d.Element, d.Verdict, want)
		}
		if d.Instance != "oracle" || d.Policy != "randpr" {
			t.Fatalf("element %d: labeled %s/%s", d.Element, d.Instance, d.Policy)
		}
	}
}

// TestVerdictMask pins a sampled decision's mask against hand-built
// position lists, including the >64-member truncation.
func TestVerdictMask(t *testing.T) {
	if got := sampledMask([]int32{0, 2}); got != 0b101 {
		t.Errorf("mask(0, 2) = %#b, want 101", got)
	}
	if got := sampledMask(nil); got != 0 {
		t.Errorf("empty choice: mask = %#b, want 0", got)
	}
	if got := sampledMask([]int32{0, 1, 2}); got != 0b111 {
		t.Errorf("full choice: mask = %#b, want 111", got)
	}
	// Of 70 members, the last (position 69) admitted: truncated out of
	// the mask.
	if got := sampledMask([]int32{0, 69}); got != 1 {
		t.Errorf("truncated mask = %#x, want 1", got)
	}
}

// TestSnapshotElapsedPinnedAfterDrain pins the satellite fix: once the
// stream is drained, Elapsed and ElementsPerSec are frozen — two
// snapshots taken with wall time passing between them are identical, so
// post-drain metric scrapes are stable.
func TestSnapshotElapsedPinnedAfterDrain(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	inst, err := workload.Uniform(workload.UniformConfig{M: 20, N: 500, Load: 4, Capacity: 2}, rng)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(core.InfoOf(inst), 1, Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, el := range inst.Elements {
		if err := e.Submit(el); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	a := e.Metrics().Snapshot()
	time.Sleep(20 * time.Millisecond)
	b := e.Metrics().Snapshot()
	if a.Elapsed != b.Elapsed {
		t.Errorf("post-drain Elapsed drifted: %v then %v", a.Elapsed, b.Elapsed)
	}
	if a.ElementsPerSec != b.ElementsPerSec {
		t.Errorf("post-drain ElementsPerSec drifted: %v then %v", a.ElementsPerSec, b.ElementsPerSec)
	}
	if a.Elapsed <= 0 || a.ElementsPerSec <= 0 {
		t.Errorf("drained snapshot not populated: elapsed=%v rate=%v", a.Elapsed, a.ElementsPerSec)
	}
}

// TestQueueWaitAndDecideHistograms checks the per-part stage probes:
// after a stream of 64-element batches and one batch split across both
// shards, both histograms hold one observation per batch part.
func TestQueueWaitAndDecideHistograms(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	inst, err := workload.Uniform(workload.UniformConfig{M: 40, N: 1024 + 2*minPart, Load: 4, Capacity: 2}, rng)
	if err != nil {
		t.Fatal(err)
	}
	dlog, tel := telemetryFor(t, obs.DecisionLogConfig{SampleEvery: 64}, "hist", 2)
	defer dlog.Close()
	e, err := New(core.InfoOf(inst), 9, Config{Shards: 2, BatchSize: 64, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	for _, el := range inst.Elements[:1024] {
		if err := e.Submit(el); err != nil {
			t.Fatal(err)
		}
	}
	b := e.BorrowBatch()
	fillBatch(b, inst.Elements[1024:])
	if err := e.SubmitBatch(b); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	parts := e.Metrics().Snapshot().Batches + 1 // the split batch is two parts
	if got := tel.QueueWait.Snapshot().Count; got != parts {
		t.Errorf("queue-wait observations = %d, want %d (one per part)", got, parts)
	}
	if got := tel.Decide.Snapshot().Count; got != parts {
		t.Errorf("decide observations = %d, want %d (one per part)", got, parts)
	}
}

package engine

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/setsystem"
	"repro/internal/workload"
)

// TestLaneSubmitMatchesSerial is the correctness anchor of striped
// multi-connection ingest: several lanes submitting concurrently — each
// its own stripe of the element stream, in its own goroutine — drain to
// a result bit-for-bit identical to the serial oracle. Decisions depend
// only on the element and the frozen instance state, and assignment
// counts are commutative sums, so any cross-lane interleaving is
// equivalent. Run under -race this also pins the lane concurrency
// contract: no shared submitter state between lanes.
func TestLaneSubmitMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	inst, err := workload.Uniform(workload.UniformConfig{M: 150, N: 8000, Load: 7, MinLoad: 2, Capacity: 2}, rng)
	if err != nil {
		t.Fatal(err)
	}
	const seed = 17
	want := serial(t, inst, seed)

	// 2·minPart-element batches are split across shards (the stream's
	// 8000 elements leave a short whole batch at the end); 97 never is.
	for _, batchN := range []int{97, 2 * minPart} {
		for _, lanes := range []int{1, 2, 4} {
			for _, shards := range []int{1, 3} {
				laneSubmitMatchesSerial(t, inst, seed, want, batchN, lanes, shards)
			}
		}
	}
}

// laneSubmitMatchesSerial stripes inst, cut into batchN-element batches,
// over concurrent lanes of a fresh engine and checks the drain against
// want.
func laneSubmitMatchesSerial(t *testing.T, inst *setsystem.Instance, seed uint64, want *core.Result, batchN, lanes, shards int) {
	t.Helper()
	e, err := New(core.InfoOf(inst), seed, Config{Shards: shards, BatchSize: 64, QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Pre-chunk the stream into batches, then stripe batch k to
	// lane k%lanes — the exact shape of a striped stream client.
	var chunks [][]setsystem.Element
	for off := 0; off < len(inst.Elements); off += batchN {
		chunks = append(chunks, inst.Elements[off:min(off+batchN, len(inst.Elements))])
	}
	var wg sync.WaitGroup
	for li := 0; li < lanes; li++ {
		wg.Add(1)
		go func(li int) {
			defer wg.Done()
			lane := e.Lane(li)
			for k := li; k < len(chunks); k += lanes {
				b := e.BorrowBatch()
				fillBatch(b, chunks[k])
				if err := lane.SubmitBatch(b); err != nil {
					t.Error(err)
					return
				}
			}
		}(li)
	}
	wg.Wait()
	got, err := e.Drain()
	if err != nil {
		t.Fatal(err)
	}
	checkEquivalent(t, got, want, "lane-striped stream")
	if snap := e.Metrics().Snapshot(); snap.Processed != uint64(len(inst.Elements)) || snap.Batches != uint64(len(chunks)) {
		t.Errorf("batch=%d lanes=%d shards=%d: processed %d of %d elements in %d of %d batches",
			batchN, lanes, shards, snap.Processed, len(inst.Elements), snap.Batches, len(chunks))
	}
}

// TestLaneAfterDrain pins the lifecycle edge for lanes: a submission
// after Drain is refused with ErrDrained and the batch recycled, same
// as SubmitBatch.
func TestLaneAfterDrain(t *testing.T) {
	info := core.Info{Weights: []float64{1, 1}, Sizes: []int{1, 1}}
	e, err := New(info, 1, Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	lane := e.Lane(0)
	if _, err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	b := e.BorrowBatch()
	fillBatch(b, []setsystem.Element{{Members: []setsystem.SetID{0}, Capacity: 1}})
	if err := lane.SubmitBatch(b); err != ErrDrained {
		t.Fatalf("lane submit after Drain: err = %v, want ErrDrained", err)
	}
}

// TestAliasedBatchNotRecycled pins the ownership rule zero-copy ingest
// depends on: a batch marked Aliased passes through the shard, fires its
// Done callback, and is detached — slices nilled, flag cleared — but the
// struct never enters the engine's free list, because its backing memory
// belongs to a transport slot that will overwrite it.
func TestAliasedBatchNotRecycled(t *testing.T) {
	info := core.Info{Weights: []float64{1, 1, 1}, Sizes: []int{2, 2, 2}}
	e, err := New(info, 1, Config{Shards: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Drain()

	done := make(chan []byte, 1)
	b := &Batch{
		Members: []setsystem.SetID{0, 1},
		Offs:    []int32{0, 2},
		Caps:    []int32{1},
		Aliased: true,
		Seq:     5,
		Masks:   make([]byte, 0, 8),
		Done:    func(seq uint32, masks []byte) { done <- masks },
	}
	if err := e.SubmitBatch(b); err != nil {
		t.Fatal(err)
	}
	masks := <-done
	if len(masks) != 1 {
		t.Fatalf("verdict masks: %d bytes for 1 element", len(masks))
	}
	// After Done the transport owns the struct again: fully detached.
	if b.Members != nil || b.Offs != nil || b.Caps != nil {
		t.Errorf("aliased batch still holds storage after processing: %v/%v/%v", b.Members, b.Offs, b.Caps)
	}
	if b.Aliased {
		t.Error("Aliased flag survived Reset")
	}
	// The struct must not have entered the free list: drain the entire
	// recycled population (maxInFlight is bounded by the config) and
	// check for pointer identity.
	for i := 0; i < 16; i++ {
		if e.BorrowBatch() == b {
			t.Fatal("aliased batch was free-listed")
		}
	}
}

// TestAliasedReturnBatchDetaches covers the error path: ReturnBatch on
// an aliased batch detaches without free-listing.
func TestAliasedReturnBatchDetaches(t *testing.T) {
	info := core.Info{Weights: []float64{1}, Sizes: []int{1}}
	e, err := New(info, 1, Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Drain()
	b := &Batch{
		Members: []setsystem.SetID{0},
		Offs:    []int32{0, 1},
		Caps:    []int32{1},
		Aliased: true,
	}
	e.ReturnBatch(b)
	if b.Members != nil || b.Offs != nil || b.Caps != nil || b.Aliased {
		t.Errorf("ReturnBatch left aliased batch attached: %+v", b)
	}
	for i := 0; i < 16; i++ {
		if e.BorrowBatch() == b {
			t.Fatal("aliased batch was free-listed by ReturnBatch")
		}
	}
}

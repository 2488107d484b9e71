package engine

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/setsystem"
	"repro/internal/wire"
	"repro/internal/workload"
)

// fillBatch bulk-copies a run of elements into a borrowed batch — the
// test stand-in for wire.DecodeBatch filling engine buffers directly.
func fillBatch(b *Batch, els []setsystem.Element) {
	b.Offs = append(b.Offs, 0)
	for _, el := range els {
		b.Members = append(b.Members, el.Members...)
		b.Offs = append(b.Offs, int32(len(b.Members)))
		b.Caps = append(b.Caps, int32(el.Capacity))
	}
}

// TestSubmitBatchMatchesSerial is the correctness anchor of the
// zero-copy wire path: a stream ingested entirely through borrowed
// batches — of sizes unrelated to Config.BatchSize — drains to a result
// bit-for-bit identical to the serial oracle, across shard counts.
func TestSubmitBatchMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	inst, err := workload.Uniform(workload.UniformConfig{M: 120, N: 6000, Load: 7, MinLoad: 2, Capacity: 2}, rng)
	if err != nil {
		t.Fatal(err)
	}
	const seed = 99
	want := serial(t, inst, seed)

	for _, shards := range []int{1, 3, 4} {
		e, err := New(core.InfoOf(inst), seed, Config{Shards: shards, BatchSize: 64, QueueDepth: 2})
		if err != nil {
			t.Fatal(err)
		}
		// Deliberately odd wire-batch sizes, never aligned with BatchSize;
		// 3·minPart splits into up to three parts, and the stream's short
		// tail batch into two.
		sizes := []int{1, 37, 300, 5, 3 * minPart}
		for off, i := 0, 0; off < len(inst.Elements); i++ {
			end := min(off+sizes[i%len(sizes)], len(inst.Elements))
			b := e.BorrowBatch()
			fillBatch(b, inst.Elements[off:end])
			if err := b.Validate(inst.NumSets()); err != nil {
				t.Fatal(err)
			}
			if err := e.SubmitBatch(b); err != nil {
				t.Fatal(err)
			}
			off = end
		}
		got, err := e.Drain()
		if err != nil {
			t.Fatal(err)
		}
		checkEquivalent(t, got, want, "SubmitBatch stream")
		if snap := e.Metrics().Snapshot(); snap.Processed != uint64(len(inst.Elements)) {
			t.Errorf("shards=%d: processed %d of %d submitted elements", shards, snap.Processed, len(inst.Elements))
		}
	}
}

// TestSubmitBatchInterleavesWithSubmit proves the two ingest paths
// compose: per-element Submit and whole-batch SubmitBatch may alternate
// on one stream and the drained result still matches the serial oracle
// (assignment counts are order-independent sums).
func TestSubmitBatchInterleavesWithSubmit(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	inst, err := workload.Uniform(workload.UniformConfig{M: 80, N: 4000, Load: 6, Capacity: 2}, rng)
	if err != nil {
		t.Fatal(err)
	}
	const seed = 7
	want := serial(t, inst, seed)

	e, err := New(core.InfoOf(inst), seed, Config{Shards: 2, BatchSize: 32, QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(inst.Elements); {
		if (off/100)%2 == 0 { // alternate runs of 100 between the paths
			end := min(off+100, len(inst.Elements))
			b := e.BorrowBatch()
			fillBatch(b, inst.Elements[off:end])
			if err := e.SubmitBatch(b); err != nil {
				t.Fatal(err)
			}
			off = end
		} else {
			end := min(off+100, len(inst.Elements))
			for ; off < end; off++ {
				if err := e.Submit(inst.Elements[off]); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	got, err := e.Drain()
	if err != nil {
		t.Fatal(err)
	}
	checkEquivalent(t, got, want, "interleaved Submit/SubmitBatch stream")
}

// TestSubmitBatchSteadyStateZeroAlloc extends the engine's headline
// property to the wire path: borrow → fill → submit allocates nothing
// once the batch population is warm — for a batch that stays whole and
// for one split across both shards with Done masks, whose verdict
// buffer round-trips through the callback the way the stream
// transport's does.
func TestSubmitBatchSteadyStateZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	inst, err := workload.Uniform(workload.UniformConfig{M: 100, N: 1 << 16, Load: 6, Capacity: 2}, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		batchN int
		masks  bool
	}{{256, false}, {2 * minPart, true}} {
		e, err := New(core.InfoOf(inst), 5, Config{Shards: 2, BatchSize: 64, QueueDepth: 4})
		if err != nil {
			t.Fatal(err)
		}
		// With masks, one frame is in flight at a time and its buffer
		// comes back through Done for the next submit.
		back := make(chan []byte, 1)
		done := func(_ uint32, m []byte) { back <- m }
		var masks []byte
		submit := func(els []setsystem.Element) {
			b := e.BorrowBatch()
			fillBatch(b, els)
			if tc.masks {
				b.Masks, b.Done = masks[:0], done
			}
			if err := e.SubmitBatch(b); err != nil {
				t.Fatal(err)
			}
			if tc.masks {
				masks = <-back
			}
		}
		// Warm-up: cycle at least twice the in-flight batch population
		// (shards×(queue+1)+2 = 12 here) past the workload's high-water
		// member count, so every recycled batch has grown its buffers.
		warm := 24 * tc.batchN
		for off := 0; off+tc.batchN <= warm; off += tc.batchN {
			submit(inst.Elements[off : off+tc.batchN])
		}
		rest := inst.Elements[warm:]
		pos := 0
		allocs := testing.AllocsPerRun(20, func() {
			off := pos % (len(rest) - tc.batchN)
			submit(rest[off : off+tc.batchN])
			pos += tc.batchN
		})
		if perElement := allocs / float64(tc.batchN); perElement != 0 {
			t.Errorf("steady-state SubmitBatch of %d (masks %v): %v allocs/element (%v per batch), want 0",
				tc.batchN, tc.masks, perElement, allocs)
		}
		if _, err := e.Drain(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSubmitBatchSplitsAcrossShards pins the dispatcher on one batch of
// 2·minPart elements with Done masks on a 2-shard engine: both shards
// decide a part, Done fires once, the masks are byte for byte the frame
// a serial AppendVerdictMask walk builds, and the batch counts once.
func TestSubmitBatchSplitsAcrossShards(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	inst, err := workload.Uniform(workload.UniformConfig{M: 200, N: 2 * minPart, Load: 13, MinLoad: 2, Capacity: 3}, rng)
	if err != nil {
		t.Fatal(err)
	}
	const seed = 8
	e, err := New(core.InfoOf(inst), seed, Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	want = wire.AppendVerdictsHeader(want, len(inst.Elements))
	var admitted []setsystem.SetID
	for _, el := range inst.Elements {
		admitted = e.Policy().Decide(el.Members, el.Capacity, admitted)
		want = wire.AppendVerdictMask(want, el.Members, admitted)
	}

	calls := make(chan []byte, 2)
	b := e.BorrowBatch()
	fillBatch(b, inst.Elements)
	b.Seq = 3
	b.Masks = wire.AppendVerdictsHeader(nil, len(inst.Elements))
	b.Done = func(seq uint32, masks []byte) {
		if seq != 3 {
			t.Errorf("Done(seq %d), want 3", seq)
		}
		calls <- masks
	}
	if err := e.SubmitBatch(b); err != nil {
		t.Fatal(err)
	}
	got, err := e.Drain()
	if err != nil {
		t.Fatal(err)
	}
	checkEquivalent(t, got, serial(t, inst, seed), "split batch")
	for i, s := range e.shards {
		moved := false
		for _, c := range s.assigned {
			moved = moved || c != 0
		}
		if !moved {
			t.Errorf("shard %d assigned nothing: the batch was not split", i)
		}
	}
	if len(calls) != 1 {
		t.Fatalf("Done fired %d times, want once", len(calls))
	}
	if masks := <-calls; !bytes.Equal(masks, want) {
		t.Errorf("verdict frame differs from the serial AppendVerdictMask frame (%d vs %d bytes)", len(masks), len(want))
	}
	if snap := e.Metrics().Snapshot(); snap.Batches != 1 || snap.Processed != uint64(len(inst.Elements)) {
		t.Errorf("snapshot: %d batches, %d processed; want 1 batch, %d processed", snap.Batches, snap.Processed, len(inst.Elements))
	}
}

// TestDecideLeavesFrameUnchanged pins the read-only contract of the
// zero-copy path: a batch of 2·minPart elements with Done, split across
// two shards and aliasing caller-owned storage as a stream frame does,
// is decided without one write to its members, offsets or capacities.
func TestDecideLeavesFrameUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	inst, err := workload.Uniform(workload.UniformConfig{M: 200, N: 2 * minPart, Load: 13, MinLoad: 2, Capacity: 3}, rng)
	if err != nil {
		t.Fatal(err)
	}
	const seed = 5
	e, err := New(core.InfoOf(inst), seed, Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	b := new(Batch)
	fillBatch(b, inst.Elements)
	b.Aliased = true
	members, offs, caps := b.Members, b.Offs, b.Caps
	wantMembers, wantOffs, wantCaps := slices.Clone(members), slices.Clone(offs), slices.Clone(caps)
	done := make(chan struct{}, 1)
	b.Done = func(uint32, []byte) { done <- struct{}{} }
	if err := e.SubmitBatch(b); err != nil {
		t.Fatal(err)
	}
	got, err := e.Drain()
	if err != nil {
		t.Fatal(err)
	}
	<-done
	checkEquivalent(t, got, serial(t, inst, seed), "aliased split batch")
	if !slices.Equal(members, wantMembers) {
		t.Error("deciding the batch wrote its members")
	}
	if !slices.Equal(offs, wantOffs) || !slices.Equal(caps, wantCaps) {
		t.Error("deciding the batch wrote its offsets or capacities")
	}
}

// TestSubmitBatchAfterDrain pins the lifecycle edge: a borrowed batch
// submitted after Drain is refused with ErrDrained and recycled, not
// leaked or processed.
func TestSubmitBatchAfterDrain(t *testing.T) {
	info := core.Info{Weights: []float64{1, 1}, Sizes: []int{1, 1}}
	e, err := New(info, 1, Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	b := e.BorrowBatch()
	fillBatch(b, []setsystem.Element{{Members: []setsystem.SetID{0}, Capacity: 1}})
	if err := e.SubmitBatch(b); !errors.Is(err, ErrDrained) {
		t.Fatalf("SubmitBatch after Drain: err = %v, want ErrDrained", err)
	}
}

// TestBatchValidate exercises the flat-layout validation against every
// element defect class, mirroring setsystem.CheckElement's errors.
func TestBatchValidate(t *testing.T) {
	mk := func(fill func(b *Batch)) *Batch {
		b := new(Batch)
		fill(b)
		return b
	}
	cases := []struct {
		name string
		b    *Batch
		want error
	}{
		{"valid", mk(func(b *Batch) {
			fillBatch(b, []setsystem.Element{
				{Members: []setsystem.SetID{0, 2}, Capacity: 1},
				{Members: []setsystem.SetID{1}, Capacity: 3},
			})
		}), nil},
		{"zero capacity", mk(func(b *Batch) {
			fillBatch(b, []setsystem.Element{{Members: []setsystem.SetID{0}, Capacity: 0}})
		}), setsystem.ErrBadCapacity},
		{"empty element", mk(func(b *Batch) {
			b.Offs = []int32{0, 0}
			b.Caps = []int32{1}
		}), setsystem.ErrEmptyElement},
		{"member out of range", mk(func(b *Batch) {
			fillBatch(b, []setsystem.Element{{Members: []setsystem.SetID{3}, Capacity: 1}})
		}), setsystem.ErrMemberRange},
		{"members out of order", mk(func(b *Batch) {
			b.Members = []setsystem.SetID{2, 1}
			b.Offs = []int32{0, 2}
			b.Caps = []int32{1}
		}), setsystem.ErrBadMemberOrder},
		{"structurally torn", mk(func(b *Batch) {
			b.Members = []setsystem.SetID{0}
			b.Offs = []int32{0, 2}
			b.Caps = []int32{1}
		}), nil /* any non-nil error; checked below */},
	}
	for _, tc := range cases {
		err := tc.b.Validate(3)
		switch {
		case tc.name == "valid":
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
		case tc.name == "structurally torn":
			if err == nil {
				t.Errorf("%s: validation passed", tc.name)
			}
		case !errors.Is(err, tc.want):
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

package engine

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/hashpr"
	"repro/internal/setsystem"
	"repro/internal/workload"
)

// serial runs the reference algorithm: core.Run with HashRandPr under the
// same seed, the result the engine must reproduce bit for bit.
func serial(t *testing.T, inst *setsystem.Instance, seed uint64) *core.Result {
	t.Helper()
	res, err := core.Run(inst, &core.HashRandPr{Hasher: hashpr.Mixer{Seed: seed}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// checkEquivalent asserts the engine result matches the serial reference
// exactly: completed sets, float benefit bits and assignment counts.
func checkEquivalent(t *testing.T, got, want *core.Result, label string) {
	t.Helper()
	if !reflect.DeepEqual(got.Completed, want.Completed) {
		t.Errorf("%s: completed sets differ:\nengine %v\nserial %v", label, got.Completed, want.Completed)
	}
	if got.Benefit != want.Benefit {
		t.Errorf("%s: benefit %v != serial %v", label, got.Benefit, want.Benefit)
	}
	if !reflect.DeepEqual(got.Assigned, want.Assigned) {
		t.Errorf("%s: assignment counts differ", label)
	}
}

// The headline property: across random workloads, shard counts, batch
// sizes and seeds, the sharded engine is indistinguishable from a serial
// HashRandPr run.
func TestEngineMatchesSerialProperty(t *testing.T) {
	shardCounts := []int{1, 2, 3, 4, 8}
	batchSizes := []int{1, 3, 64}
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		cfg := workload.UniformConfig{
			M:        10 + rng.Intn(90),
			N:        50 + rng.Intn(450),
			Load:     1 + rng.Intn(6),
			Capacity: 1 + rng.Intn(3),
			WeightFn: func(i int) float64 { return 1 + float64(i%7) },
		}
		inst, err := workload.Uniform(cfg, rng)
		if err != nil {
			t.Fatal(err)
		}
		seed := uint64(trial * 7777)
		want := serial(t, inst, seed)
		shards := shardCounts[trial%len(shardCounts)]
		batch := batchSizes[trial%len(batchSizes)]
		got, err := Replay(inst, seed, Config{Shards: shards, BatchSize: batch})
		if err != nil {
			t.Fatal(err)
		}
		checkEquivalent(t, got, want, "uniform trial")
	}
}

// Same equivalence on the structured workloads ospserve serves.
func TestEngineMatchesSerialOnScenarios(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	video, err := workload.Video(workload.VideoConfig{Streams: 12, FramesPerStream: 10, Jitter: 3, LinkCapacity: 2}, rng)
	if err != nil {
		t.Fatal(err)
	}
	multihop, err := workload.Multihop(workload.MultihopConfig{Hops: 6, Packets: 120, Horizon: 15}, rng)
	if err != nil {
		t.Fatal(err)
	}
	bursty, err := workload.Bursty(workload.BurstyConfig{Streams: 10, Frames: 12}, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		inst *setsystem.Instance
	}{
		{"video", video.Inst},
		{"multihop", multihop.Inst},
		{"bursty", bursty.Inst},
	} {
		for _, shards := range []int{1, 4} {
			want := serial(t, tc.inst, 42)
			got, err := Replay(tc.inst, 42, Config{Shards: shards, BatchSize: 16})
			if err != nil {
				t.Fatal(err)
			}
			checkEquivalent(t, got, want, tc.name)
		}
	}
}

// PolyFamily hashers drive the engine just as well as Mixer.
func TestEngineWithPolyFamilyHasher(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	inst, err := workload.Uniform(workload.UniformConfig{M: 40, N: 200, Load: 4}, rng)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := hashpr.NewPolyFamily(8, rng)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Run(inst, &core.HashRandPr{Hasher: pf}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReplayWithPolicy(inst, core.RandPrPolicy{Hasher: pf}, 0, Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	checkEquivalent(t, got, want, "polyfamily")
}

func TestSubmitDrainLifecycle(t *testing.T) {
	info := core.Info{Weights: []float64{2, 3}, Sizes: []int{1, 2}}
	e, err := New(info, 1, Config{Shards: 2, BatchSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	elems := []setsystem.Element{
		{Members: []setsystem.SetID{0, 1}, Capacity: 2},
		{Members: []setsystem.SetID{1}, Capacity: 1},
	}
	for _, el := range elems {
		if err := e.Submit(el); err != nil {
			t.Fatal(err)
		}
	}
	res, err := e.Drain()
	if err != nil {
		t.Fatal(err)
	}
	// Capacity 2 admits both parents of the first element; both sets
	// complete.
	if res.Benefit != 5 {
		t.Errorf("benefit = %v, want 5", res.Benefit)
	}
	// Drain is idempotent.
	res2, err := e.Drain()
	if err != nil || res2 != res {
		t.Errorf("second Drain = (%v, %v), want cached result", res2, err)
	}
	// Submit after Drain fails.
	if err := e.Submit(elems[0]); err != ErrDrained {
		t.Errorf("Submit after Drain = %v, want ErrDrained", err)
	}
}

// TestLifecycleStates pins the idle → streaming → drained progression the
// service layer's pool listings and metrics labels rely on: rejected
// submits do not leave idle, the first accepted submit enters streaming,
// and Drain is terminal.
func TestLifecycleStates(t *testing.T) {
	info := core.Info{Weights: []float64{2, 3}, Sizes: []int{1, 2}}
	e, err := New(info, 1, Config{Shards: 2, BatchSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.State(); got != StateIdle {
		t.Errorf("fresh engine state = %v, want idle", got)
	}
	if err := e.Submit(setsystem.Element{Members: nil, Capacity: 1}); err == nil {
		t.Fatal("invalid element accepted")
	}
	if got := e.State(); got != StateIdle {
		t.Errorf("state after rejected submit = %v, want idle", got)
	}
	if err := e.Submit(setsystem.Element{Members: []setsystem.SetID{0}, Capacity: 1}); err != nil {
		t.Fatal(err)
	}
	if got := e.State(); got != StateStreaming {
		t.Errorf("state after submit = %v, want streaming", got)
	}
	if _, err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := e.State(); got != StateDrained {
		t.Errorf("state after drain = %v, want drained", got)
	}
	for st, want := range map[State]string{StateIdle: "idle", StateStreaming: "streaming", StateDrained: "drained", State(9): "state(9)"} {
		if st.String() != want {
			t.Errorf("State(%d).String() = %q, want %q", st, st.String(), want)
		}
	}
}

// TestPolicyStateSharedWithSerial pins the Policy accessor: deciding an
// element with the engine's frozen policy state reproduces the serial
// replica's decision (core.SelectTopPrioritySort over independently derived
// priorities), which is what the HTTP layer's immediate verdicts depend
// on.
func TestPolicyStateSharedWithSerial(t *testing.T) {
	info := core.Info{Weights: []float64{1, 2, 3}, Sizes: []int{1, 1, 1}}
	e, err := New(info, 7, Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Drain()
	if got := e.PolicyName(); got != core.DefaultPolicy {
		t.Errorf("PolicyName() = %q, want %q", got, core.DefaultPolicy)
	}
	prio := core.HashPriorities(info, hashpr.Mixer{Seed: 7}, nil)
	members := []setsystem.SetID{0, 1, 2}
	want := core.SelectTopPrioritySort(members, 2, prio, nil)
	got := e.Policy().Decide(members, 2, nil)
	if len(got) != len(want) {
		t.Fatalf("Decide chose %v, serial replica chose %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Decide chose %v, serial replica chose %v", got, want)
			break
		}
	}
}

// TestSubmitValidatedMatchesSubmit pins the pre-validated fast path: a
// stream fed through SubmitValidated produces the same result as Submit,
// honors the lifecycle, and still refuses a drained stream.
func TestSubmitValidatedMatchesSubmit(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	inst, err := workload.Uniform(workload.UniformConfig{M: 30, N: 1500, Load: 4, Capacity: 2}, rng)
	if err != nil {
		t.Fatal(err)
	}
	want := serial(t, inst, 13)

	e, err := New(core.InfoOf(inst), 13, Config{Shards: 3, BatchSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	for _, el := range inst.Elements {
		if err := e.SubmitValidated(el); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.State(); got != StateStreaming {
		t.Errorf("state mid-stream = %v, want streaming", got)
	}
	got, err := e.Drain()
	if err != nil {
		t.Fatal(err)
	}
	checkEquivalent(t, got, want, "SubmitValidated")
	if err := e.SubmitValidated(inst.Elements[0]); err != ErrDrained {
		t.Errorf("SubmitValidated after Drain = %v, want ErrDrained", err)
	}
}

func TestSubmitValidation(t *testing.T) {
	info := core.Info{Weights: []float64{1, 1}, Sizes: []int{1, 1}}
	e, err := New(info, 0, Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Drain()
	bad := []setsystem.Element{
		{Members: nil, Capacity: 1},                      // no members
		{Members: []setsystem.SetID{0}, Capacity: 0},     // bad capacity
		{Members: []setsystem.SetID{2}, Capacity: 1},     // out of range
		{Members: []setsystem.SetID{1, 0}, Capacity: 1},  // unsorted
		{Members: []setsystem.SetID{0, 0}, Capacity: 1},  // duplicate
		{Members: []setsystem.SetID{-1, 0}, Capacity: 1}, // negative
	}
	for i, el := range bad {
		if err := e.Submit(el); err == nil {
			t.Errorf("bad element %d accepted", i)
		}
	}
}

func TestNewRejectsNilPolicy(t *testing.T) {
	if _, err := NewWithPolicy(core.Info{}, nil, 0, Config{}); err != ErrNilPolicy {
		t.Errorf("NewWithPolicy(nil policy) = %v, want ErrNilPolicy", err)
	}
}

func TestConfigDefaults(t *testing.T) {
	e, err := New(core.Info{Weights: []float64{1}, Sizes: []int{1}}, 0, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Drain()
	if e.NumShards() < 1 {
		t.Errorf("default shards = %d", e.NumShards())
	}
	if e.cfg.BatchSize != 64 || e.cfg.QueueDepth != 8 {
		t.Errorf("defaults not applied: %+v", e.cfg)
	}
}

// Backpressure: with tiny queues and a slow drain the submitter must not
// lose elements — every submitted element is processed by Drain time.
func TestBackpressureLosesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	inst, err := workload.Uniform(workload.UniformConfig{M: 30, N: 5000, Load: 3}, rng)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(core.InfoOf(inst), 3, Config{Shards: 2, BatchSize: 4, QueueDepth: 1})
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
	snap := e.Metrics().Snapshot()
	if snap.Submitted != uint64(len(inst.Elements)) || snap.Processed != snap.Submitted {
		t.Errorf("submitted=%d processed=%d, want both %d", snap.Submitted, snap.Processed, len(inst.Elements))
	}
}

func TestMetricsSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	inst, err := workload.Uniform(workload.UniformConfig{M: 20, N: 400, Load: 4}, rng)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(core.InfoOf(inst), 9, Config{Shards: 2, BatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	var totalMembers uint64
	for _, el := range inst.Elements {
		totalMembers += uint64(len(el.Members))
		if err := e.Submit(el); err != nil {
			t.Fatal(err)
		}
	}
	res, err := e.Drain()
	if err != nil {
		t.Fatal(err)
	}
	snap := e.Metrics().Snapshot()
	if snap.Assigned+snap.Dropped != totalMembers {
		t.Errorf("assigned %d + dropped %d != offered memberships %d", snap.Assigned, snap.Dropped, totalMembers)
	}
	if snap.CompletedWeight != res.Benefit || snap.CompletedSets != len(res.Completed) {
		t.Errorf("snapshot completion (%d, %v) != result (%d, %v)",
			snap.CompletedSets, snap.CompletedWeight, len(res.Completed), res.Benefit)
	}
	if snap.Elapsed <= 0 || snap.ElementsPerSec <= 0 {
		t.Errorf("rates not populated: %+v", snap)
	}
	if snap.String() == "" {
		t.Error("empty String()")
	}
	// Elapsed freezes after Drain.
	if again := e.Metrics().Snapshot(); again.Elapsed != snap.Elapsed {
		t.Errorf("Elapsed moved after Drain: %v then %v", snap.Elapsed, again.Elapsed)
	}
}

// Concurrent metric reads while the stream is hot — meaningful under
// -race.
func TestConcurrentMetricsReads(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	inst, err := workload.Uniform(workload.UniformConfig{M: 50, N: 20_000, Load: 4}, rng)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(core.InfoOf(inst), 17, Config{Shards: 4, BatchSize: 16, QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				e.Metrics().Snapshot()
			}
		}
	}()
	want := serial(t, inst, 17)
	for _, el := range inst.Elements {
		if err := e.Submit(el); err != nil {
			t.Fatal(err)
		}
	}
	got, err := e.Drain()
	close(stop)
	if err != nil {
		t.Fatal(err)
	}
	checkEquivalent(t, got, want, "concurrent reads")
}

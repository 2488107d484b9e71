package repro_test

// The benchmark harness: one testing.B benchmark per experiment in the
// reproduction index (DESIGN.md §3) — each iteration regenerates the
// experiment's table on reduced sweeps — plus micro-benchmarks of the
// engine's hot paths (priority sampling, runner throughput, exact OPT,
// LP bound, gadget construction). Run with:
//
//	go test -bench=. -benchmem
//
// The experiment benchmarks are the programmatic hook for regenerating
// every "table/figure" of the paper; cmd/ospbench prints the same tables
// at full parameter sweeps.

import (
	"fmt"
	"io"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/gadget"
	"repro/internal/gf"
	"repro/internal/hashpr"
	"repro/internal/lowerbound"
	"repro/internal/offline"
	"repro/internal/router"
	"repro/internal/setsystem"
	"repro/internal/workload"
)

// benchExperiment runs one experiment in quick mode per iteration. The
// experiment benchmarks regenerate whole result tables and are the heavy
// end of the suite, so they are skipped under -short.
func benchExperiment(b *testing.B, id string, trials int) {
	b.Helper()
	if testing.Short() {
		b.Skip("experiment benchmarks skipped in -short mode")
	}
	exp, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	cfg := experiments.Config{Seed: 1, Quick: true, Trials: trials}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := exp.Run(cfg, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkX1Lemma1(b *testing.B)        { benchExperiment(b, "X1", 2000) }
func BenchmarkX2Theorem1(b *testing.B)      { benchExperiment(b, "X2", 5) }
func BenchmarkX3Theorem5(b *testing.B)      { benchExperiment(b, "X3", 5) }
func BenchmarkX4Corollary7(b *testing.B)    { benchExperiment(b, "X4", 5) }
func BenchmarkX5Theorem6(b *testing.B)      { benchExperiment(b, "X5", 5) }
func BenchmarkX6Theorem4(b *testing.B)      { benchExperiment(b, "X6", 3) }
func BenchmarkX7Deterministic(b *testing.B) { benchExperiment(b, "X7", 0) }
func BenchmarkX8RandomizedLB(b *testing.B)  { benchExperiment(b, "X8", 2) }
func BenchmarkX9Video(b *testing.B)         { benchExperiment(b, "X9", 3) }
func BenchmarkX10Multihop(b *testing.B)     { benchExperiment(b, "X10", 3) }
func BenchmarkX11Distributed(b *testing.B)  { benchExperiment(b, "X11", 500) }
func BenchmarkX12Partial(b *testing.B)      { benchExperiment(b, "X12", 2) }
func BenchmarkX13Buffered(b *testing.B)     { benchExperiment(b, "X13", 3) }
func BenchmarkX14Ablation(b *testing.B)     { benchExperiment(b, "X14", 30) }
func BenchmarkX15GenPack(b *testing.B)      { benchExperiment(b, "X15", 2) }
func BenchmarkX16Grid(b *testing.B)         { benchExperiment(b, "X16", 3) }

// --- engine micro-benchmarks ---

// BenchmarkRandPrRun measures full online runs of randPr on a mid-size
// random instance (the engine's end-to-end hot path).
func BenchmarkRandPrRun(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	inst, err := workload.Uniform(workload.UniformConfig{M: 200, N: 1000, Load: 8}, rng)
	if err != nil {
		b.Fatal(err)
	}
	alg := &core.RandPr{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(inst, alg, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHashRandPrRun measures the distributed variant on the same
// instance shape (hash evaluation replaces RNG sampling).
func BenchmarkHashRandPrRun(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	inst, err := workload.Uniform(workload.UniformConfig{M: 200, N: 1000, Load: 8}, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alg := &core.HashRandPr{Hasher: hashpr.Mixer{Seed: uint64(i)}}
		if _, err := core.Run(inst, alg, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGreedyRun measures the deterministic baseline throughput.
func BenchmarkGreedyRun(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	inst, err := workload.Uniform(workload.UniformConfig{M: 200, N: 1000, Load: 8}, rng)
	if err != nil {
		b.Fatal(err)
	}
	alg := &core.GreedyMaxWeight{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(inst, alg, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExpectedBenefit measures the Lemma 1 closed-form evaluation
// (neighborhood weight computation).
func BenchmarkExpectedBenefit(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	inst, err := workload.Uniform(workload.UniformConfig{M: 300, N: 1500, Load: 6}, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.RandPrExpectedBenefit(inst)
	}
}

// BenchmarkExactOPT measures branch-and-bound on an m=20 instance.
func BenchmarkExactOPT(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	inst, err := workload.Uniform(workload.UniformConfig{M: 20, N: 40, Load: 4}, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := offline.Exact(inst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLPBound measures the simplex relaxation on an m=60 instance.
func BenchmarkLPBound(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	inst, err := workload.Uniform(workload.UniformConfig{M: 60, N: 120, Load: 4}, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := offline.LPBound(inst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGF measures field multiplication in GF(81).
func BenchmarkGF(b *testing.B) {
	f, err := gf.NewField(81)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	acc := 1
	for i := 0; i < b.N; i++ {
		acc = f.Mul(acc, 1+i%80)
		if acc == 0 {
			acc = 1
		}
	}
}

// BenchmarkGadgetApply measures a full (8,64)-gadget line enumeration.
func BenchmarkGadgetApply(b *testing.B) {
	g, err := gadget.New(8, 64)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count := 0
		g.VisitLines(true, func(line []gadget.Item) { count += len(line) })
	}
}

// BenchmarkLemma9Build measures one draw of the ℓ=5 lower-bound
// distribution (Figure 1 construction end to end).
func BenchmarkLemma9Build(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		if _, err := lowerbound.NewLemma9(5, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDuel measures a full Theorem 3 duel (σ=4, k=3: 64 sets).
func BenchmarkDuel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, _, err := lowerbound.RunDuel(4, 3, &core.GreedyFirstListed{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVideoSimulate measures the bottleneck-router simulation
// (trace synthesis + policy run + goodput accounting).
func BenchmarkVideoSimulate(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	vi, err := workload.Video(workload.VideoConfig{Streams: 16, FramesPerStream: 32, Jitter: 3}, rng)
	if err != nil {
		b.Fatal(err)
	}
	alg := &core.RandPr{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := router.Simulate(vi, alg, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMultihopSimulate measures the distributed switch-line
// simulation with drop propagation.
func BenchmarkMultihopSimulate(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	mi, err := workload.Multihop(workload.MultihopConfig{Hops: 12, Packets: 500, Horizon: 40}, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := router.SimulateMultihop(mi, hashpr.Mixer{Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- admission kernel micro-benchmarks ---

// selectSample generates the decide microbenchmark sample: elements whose
// loads exceed their capacity so selection always trims, plus the shared
// priority vector.
func selectSample(b *testing.B, capacity, maxLoad int) ([]setsystem.Element, []float64) {
	b.Helper()
	rng := rand.New(rand.NewSource(20))
	inst, err := workload.Uniform(workload.UniformConfig{
		M: 4096, N: 10_000, Load: maxLoad, MinLoad: capacity + 1, Capacity: capacity,
	}, rng)
	if err != nil {
		b.Fatal(err)
	}
	prio := core.HashPriorities(core.InfoOf(inst), hashpr.Mixer{Seed: 20}, nil)
	return inst.Elements, prio
}

// benchSelect times one selection implementation over the whole sample per
// iteration, reporting ns/element.
func benchSelect(b *testing.B, capacity, maxLoad int,
	sel func([]setsystem.SetID, int, []float64, []setsystem.SetID) []setsystem.SetID) {
	b.Helper()
	elems, prio := selectSample(b, capacity, maxLoad)
	buf := make([]setsystem.SetID, 0, maxLoad)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, el := range elems {
			buf = sel(el.Members, el.Capacity, prio, buf)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(len(elems))), "ns/element")
}

// The capacity<=8 regime (bounded insertion kernel) against the sort path
// it replaced — the headline 2x+ of the zero-allocation rewrite.
func BenchmarkSelectKernelCap4(b *testing.B) { benchSelect(b, 4, 16, core.SelectTopPriority) }
func BenchmarkSelectSortCap4(b *testing.B)   { benchSelect(b, 4, 16, core.SelectTopPrioritySort) }

// The large-capacity regime (quickselect kernel) against the same sort
// path.
func BenchmarkSelectKernelCap16(b *testing.B) { benchSelect(b, 16, 48, core.SelectTopPriority) }
func BenchmarkSelectSortCap16(b *testing.B)   { benchSelect(b, 16, 48, core.SelectTopPrioritySort) }

// --- streaming engine benchmarks ---

// benchEngineShards replays a dense generated video workload through the
// sharded streaming engine and reports end-to-end element throughput.
// Comparing Shards{1,2,4,8} is the scaling trajectory of the admission
// hot path; speedup tracks GOMAXPROCS (shards time-slice on fewer cores).
func benchEngineShards(b *testing.B, shards int) {
	b.Helper()
	rng := rand.New(rand.NewSource(9))
	vi, err := workload.Video(workload.VideoConfig{
		Streams: 256, FramesPerStream: 24, Jitter: 6, LinkCapacity: 4,
	}, rng)
	if err != nil {
		b.Fatal(err)
	}
	cfg := engine.Config{Shards: shards, BatchSize: 128, QueueDepth: 8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Replay(vi.Inst, uint64(i), cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	elems := float64(b.N) * float64(vi.Inst.NumElements())
	b.ReportMetric(elems/b.Elapsed().Seconds(), "elements/s")
}

func BenchmarkEngineShards1(b *testing.B) { benchEngineShards(b, 1) }
func BenchmarkEngineShards2(b *testing.B) { benchEngineShards(b, 2) }
func BenchmarkEngineShards4(b *testing.B) { benchEngineShards(b, 4) }
func BenchmarkEngineShards8(b *testing.B) { benchEngineShards(b, 8) }

// BenchmarkSubmitBatchFrame keeps one stream-shaped frame in flight on a
// 2-shard engine — a batch with Done verdict masks is submitted and its
// masks awaited before the next — at batch sizes on both sides of the
// engine's split threshold (batches of 2048 elements and more are
// decided in parts on both shards). Each iteration first copies the
// frame's flat arrays into the borrowed batch, standing in for the
// stream reader's socket read. Run it at -cpu 1,2: the split pays only
// when the second shard has a core of its own.
func BenchmarkSubmitBatchFrame(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	inst, err := workload.Uniform(workload.UniformConfig{
		M: 8192, N: 4096, Load: 12, MinLoad: 4, Capacity: 4,
	}, rng)
	if err != nil {
		b.Fatal(err)
	}
	var members []setsystem.SetID
	offs := []int32{0}
	caps := make([]int32, 0, len(inst.Elements))
	for _, el := range inst.Elements {
		members = append(members, el.Members...)
		offs = append(offs, int32(len(members)))
		caps = append(caps, int32(el.Capacity))
	}
	for _, n := range []int{512, 1024, 2048, 4096} {
		b.Run(fmt.Sprintf("batch=%d", n), func(b *testing.B) {
			e, err := engine.New(core.InfoOf(inst), 1, engine.Config{Shards: 2})
			if err != nil {
				b.Fatal(err)
			}
			defer e.Drain()
			back := make(chan []byte, 1)
			done := func(_ uint32, m []byte) { back <- m }
			var masks []byte
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bt := e.BorrowBatch()
				bt.Members = append(bt.Members, members[:offs[n]]...)
				bt.Offs = append(bt.Offs, offs[:n+1]...)
				bt.Caps = append(bt.Caps, caps[:n]...)
				bt.Seq, bt.Masks, bt.Done = uint32(i), masks[:0], done
				if err := e.SubmitBatch(bt); err != nil {
					b.Fatal(err)
				}
				masks = <-back
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(n)), "ns/element")
		})
	}
}

// BenchmarkEngineVsSerial pins the engine's single-shard overhead against
// the serial HashRandPr runner on the same workload.
func BenchmarkEngineVsSerial(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	vi, err := workload.Video(workload.VideoConfig{
		Streams: 256, FramesPerStream: 24, Jitter: 6, LinkCapacity: 4,
	}, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			alg := &core.HashRandPr{Hasher: hashpr.Mixer{Seed: uint64(i)}}
			if _, err := core.Run(vi.Inst, alg, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("engine", func(b *testing.B) {
		cfg := engine.Config{Shards: 1, BatchSize: 128}
		for i := 0; i < b.N; i++ {
			if _, err := engine.Replay(vi.Inst, uint64(i), cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

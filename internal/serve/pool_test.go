package serve

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/workload"
)

// poolSpec builds a registration spec over a deterministic workload.
func poolSpec(t *testing.T, seed uint64) Spec {
	t.Helper()
	inst, err := workload.Uniform(workload.UniformConfig{M: 40, N: 2000, Load: 4, Capacity: 2},
		rand.New(rand.NewSource(int64(seed))))
	if err != nil {
		t.Fatal(err)
	}
	return Spec{
		Info:   core.InfoOf(inst),
		Seed:   seed,
		Engine: engine.Config{Shards: 2, BatchSize: 16, QueueDepth: 2},
	}
}

// TestPoolGracefulShutdownUnderLoad is the engine-pool teardown test:
// several instances are mid-stream — submitters actively pushing batches
// through Instance.IngestBatch against bounded queues — when Shutdown
// fires. Every engine must reach drained, in-flight batches must be
// decided (processed == submitted, nothing lost), and late submitters
// must be turned away cleanly.
func TestPoolGracefulShutdownUnderLoad(t *testing.T) {
	p := NewPool(0)
	const instances = 4

	type stream struct {
		in   *Instance
		stop chan struct{}
	}
	var streams []stream
	var wg sync.WaitGroup
	for k := 0; k < instances; k++ {
		seed := uint64(50 + k)
		inst, err := workload.Uniform(workload.UniformConfig{M: 40, N: 2000, Load: 4, Capacity: 2},
			rand.New(rand.NewSource(int64(seed))))
		if err != nil {
			t.Fatal(err)
		}
		in, err := p.Register(Spec{
			Info:   core.InfoOf(inst),
			Seed:   seed,
			Engine: engine.Config{Shards: 2, BatchSize: 16, QueueDepth: 2},
		})
		if err != nil {
			t.Fatal(err)
		}
		st := stream{in: in, stop: make(chan struct{})}
		streams = append(streams, st)
		wg.Add(1)
		go func(st stream) {
			defer wg.Done()
			// Loop the workload in 16-element batches until shutdown cuts
			// us off.
			const batch = 16
			for i := 0; ; i = (i + batch) % len(inst.Elements) {
				select {
				case <-st.stop:
					return
				default:
				}
				b := st.in.eng.BorrowBatch()
				b.Offs = append(b.Offs, 0)
				for _, el := range inst.Elements[i:min(i+batch, len(inst.Elements))] {
					b.Members = append(b.Members, el.Members...)
					b.Offs = append(b.Offs, int32(len(b.Members)))
					b.Caps = append(b.Caps, int32(el.Capacity))
				}
				err := st.in.IngestBatch(b)
				if errors.Is(err, engine.ErrDrained) {
					return // shutdown won the race — the expected exit
				}
				if err != nil {
					t.Errorf("mid-stream ingest error: %v", err)
					return
				}
			}
		}(st)
	}

	// Let every submitter get going, then pull the plug.
	time.Sleep(20 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := p.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	for _, st := range streams {
		close(st.stop)
	}
	wg.Wait()

	if !p.Closed() {
		t.Error("pool not closed after shutdown")
	}
	if _, err := p.Register(Spec{Info: core.Info{Weights: []float64{1}, Sizes: []int{1}}}); !errors.Is(err, ErrPoolClosed) {
		t.Errorf("register after shutdown = %v, want ErrPoolClosed", err)
	}
	for _, st := range streams {
		if got := st.in.State(); got != engine.StateDrained {
			t.Errorf("instance %s state after shutdown = %v, want drained", st.in.ID(), got)
		}
		s := st.in.Snapshot()
		if s.Processed != s.Submitted {
			t.Errorf("instance %s lost elements at shutdown: submitted %d, processed %d",
				st.in.ID(), s.Submitted, s.Processed)
		}
		// The drained result is still reachable and internally consistent.
		res, err := st.in.Drain()
		if err != nil {
			t.Errorf("drain after shutdown: %v", err)
			continue
		}
		var assigned uint64
		for _, c := range res.Assigned {
			assigned += uint64(c)
		}
		if assigned != s.Assigned {
			t.Errorf("instance %s: result assigns %d, metrics say %d", st.in.ID(), assigned, s.Assigned)
		}
	}

	// Shutdown is idempotent.
	if err := p.Shutdown(context.Background()); err != nil {
		t.Errorf("second shutdown: %v", err)
	}
}

// TestPoolShutdownEmptyAndExpiredContext covers the trivial and the
// expired-context paths.
func TestPoolShutdownEmptyAndExpiredContext(t *testing.T) {
	p := NewPool(0)
	if err := p.Shutdown(context.Background()); err != nil {
		t.Errorf("empty shutdown: %v", err)
	}

	p2 := NewPool(0)
	spec := poolSpec(t, 9)
	if _, err := p2.Register(spec); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// Even with a dead context the single idle engine usually drains
	// first; accept either outcome but require the pool to be closed.
	_ = p2.Shutdown(ctx)
	if !p2.Closed() {
		t.Error("pool not closed after shutdown with expired context")
	}
}

// TestPoolRemoveUnknown pins the error.
func TestPoolRemoveUnknown(t *testing.T) {
	p := NewPool(0)
	if err := p.Remove("i-1"); !errors.Is(err, ErrUnknownInstance) {
		t.Errorf("Remove = %v, want ErrUnknownInstance", err)
	}
}

// TestPoolInstancesOrdered pins registration-order listing past id i-9
// (lexicographic would put i-10 before i-2).
func TestPoolInstancesOrdered(t *testing.T) {
	p := NewPool(0)
	for i := 0; i < 12; i++ {
		if _, err := p.Register(Spec{Info: core.Info{Weights: []float64{1}, Sizes: []int{1}}}); err != nil {
			t.Fatal(err)
		}
	}
	ins := p.Instances()
	if len(ins) != 12 {
		t.Fatalf("len(Instances) = %d", len(ins))
	}
	for i, in := range ins {
		if want := "i-" + strconv.Itoa(i+1); in.ID() != want {
			t.Errorf("Instances()[%d] = %s, want %s", i, in.ID(), want)
		}
	}
	if err := p.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestRemoveCollectsDominantInstance pins when Remove runs a
// collection: removing an instance with at least as many sets as all
// survivors together does; removing a small one beside a larger
// survivor does not.
func TestRemoveCollectsDominantInstance(t *testing.T) {
	p := NewPool(0)
	unit := func(m int) Spec {
		info := core.Info{Weights: make([]float64, m), Sizes: make([]int, m)}
		for i := range info.Sizes {
			info.Sizes[i] = 1
		}
		return Spec{Info: info, Engine: engine.Config{Shards: 1}}
	}
	big, err := p.Register(unit(1000))
	if err != nil {
		t.Fatal(err)
	}
	small, err := p.Register(unit(10))
	if err != nil {
		t.Fatal(err)
	}
	forced := func() uint32 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.NumForcedGC
	}
	before := forced()
	if err := p.Remove(small.ID()); err != nil {
		t.Fatal(err)
	}
	if got := forced(); got != before {
		t.Fatalf("removing 10 sets beside 1000 forced %d collections, want 0", got-before)
	}
	if err := p.Remove(big.ID()); err != nil {
		t.Fatal(err)
	}
	if got := forced(); got != before+1 {
		t.Fatalf("removing the last instance forced %d collections, want 1", got-before)
	}
}

// TestOpenRollsBackOnShutdown pins the open path's rollback: a
// registration whose engine is being built when Shutdown begins is
// refused with ErrPoolClosed, its telemetry is detached, and the pool
// stays empty.
func TestOpenRollsBackOnShutdown(t *testing.T) {
	p := NewPool(0)
	reserved, release := make(chan struct{}), make(chan struct{})
	var detached []string // written by Register's goroutine before errc's send
	p.SetTelemetry(func(id, policy string, shards int) *obs.EngineTelemetry {
		close(reserved)
		<-release
		return nil
	}, func(id string) { detached = append(detached, id) })
	spec := poolSpec(t, 1)
	errc := make(chan error, 1)
	go func() {
		_, err := p.Register(spec)
		errc <- err
	}()
	<-reserved
	if err := p.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	close(release)
	if err := <-errc; !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("register across shutdown = %v, want ErrPoolClosed", err)
	}
	if p.Len() != 0 || len(detached) != 1 || detached[0] != "i-1" {
		t.Fatalf("after rollback: %d instances, detached %v; want none and [i-1]", p.Len(), detached)
	}
}

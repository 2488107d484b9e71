package cluster_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/osp"
)

// startFleet boots n in-process nodes on loopback TCP and a coordinator
// over them.
func startFleet(t *testing.T, n int, cfg cluster.Config) (*cluster.Coordinator, []*cluster.LocalNode) {
	t.Helper()
	nodes := make([]*cluster.LocalNode, n)
	cfg.Nodes = make([]cluster.Node, n)
	for i := range nodes {
		ln, err := cluster.StartLocalNode(osp.ServerConfig{})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = ln
		cfg.Nodes[i] = ln.Config()
		t.Cleanup(func() { ln.Shutdown(context.Background()) }) //nolint:errcheck
	}
	co, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { co.Close() }) //nolint:errcheck
	return co, nodes
}

// workload builds a deterministic test instance.
func workload(t *testing.T, m, n, load int, seed int64) *osp.Instance {
	t.Helper()
	inst, err := osp.RandomInstance(osp.UniformConfig{M: m, N: n, Load: load, Capacity: 2},
		rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// ingestAll streams an instance through a cluster handle in fixed-size
// batches, counting admitted memberships via the verdict callback.
func ingestAll(t *testing.T, in *cluster.Instance, inst *osp.Instance, batch int) (admitted uint64) {
	t.Helper()
	ctx := context.Background()
	for off := 0; off < len(inst.Elements); off += batch {
		els := inst.Elements[off:min(off+batch, len(inst.Elements))]
		seen := 0
		err := in.Ingest(ctx, els, func(i int, adm []osp.SetID) {
			if i < 0 || i >= len(els) {
				t.Errorf("callback index %d out of batch [0,%d)", i, len(els))
			}
			seen++
			admitted += uint64(len(adm))
		})
		if err != nil {
			t.Fatal(err)
		}
		if seen != len(els) {
			t.Fatalf("callback ran %d times for %d elements", seen, len(els))
		}
	}
	return admitted
}

func sumAssigned(res *osp.Result) (total uint64) {
	for _, c := range res.Assigned {
		total += uint64(c)
	}
	return total
}

// TestClusterDeterminism is the cross-node conformance anchor of
// DESIGN.md §15: every registered policy × {1, 2, 4} nodes × {1, 4}
// shards per node, with the instance fanned out across nodes by element
// hash, drains bit-for-bit equal to the serial policy oracle and to the
// single-node engine. Placement cannot change a verdict — this test is
// the pin.
func TestClusterDeterminism(t *testing.T) {
	ctx := context.Background()
	const seed = 97
	inst := workload(t, 48, 2600, 4, 11)
	for _, policy := range osp.PolicyNames() {
		// One oracle + one single-node engine result per policy.
		alg, err := osp.NewPolicyAlgorithm(policy, seed)
		if err != nil {
			t.Fatal(err)
		}
		serial, err := osp.Run(inst, alg, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{1, 4} {
			engineRes, err := osp.RunEngine(inst, seed, osp.EngineConfig{Shards: shards, Policy: policy})
			if err != nil {
				t.Fatal(err)
			}
			if !engineRes.Equal(serial) {
				t.Fatalf("%s: single-node engine (%d shards) differs from serial oracle", policy, shards)
			}
			for _, nodes := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("%s/nodes=%d/shards=%d", policy, nodes, shards), func(t *testing.T) {
					co, _ := startFleet(t, nodes, cluster.Config{})
					in, err := co.Register(ctx, cluster.Spec{
						Info: osp.InfoOf(inst), Seed: seed, FanOut: true,
						Engine: osp.EngineConfig{Shards: shards, Policy: policy},
					})
					if err != nil {
						t.Fatal(err)
					}
					if want := min(nodes, len(in.Slots())); len(in.Slots()) != nodes {
						t.Fatalf("fan-out instance hosted on %d slots, want %d", want, nodes)
					}
					admitted := ingestAll(t, in, inst, 173)
					res, err := in.Drain(ctx)
					if err != nil {
						t.Fatal(err)
					}
					if !res.Equal(serial) {
						t.Errorf("merged drain differs from serial oracle")
					}
					if !res.Equal(engineRes) {
						t.Errorf("merged drain differs from single-node engine")
					}
					if got := sumAssigned(res); got != admitted {
						t.Errorf("drain counts %d assignments, verdict callbacks admitted %d", got, admitted)
					}
					if in.Lost() != 0 {
						t.Errorf("Lost() = %d on a run with no failover", in.Lost())
					}
				})
			}
		}
	}
}

// TestClusterPinnedPlacement covers the ring arm: many pinned (non
// fan-out) instances spread across a 4-node fleet by consistent hashing
// — more than one slot used, and every instance's drain still equals
// its serial oracle regardless of where the ring put it.
func TestClusterPinnedPlacement(t *testing.T) {
	ctx := context.Background()
	co, _ := startFleet(t, 4, cluster.Config{})
	slotsUsed := map[int]bool{}
	for k := 0; k < 8; k++ {
		seed := uint64(100 + k)
		inst := workload(t, 20, 500, 3, int64(k))
		in, err := co.Register(ctx, cluster.Spec{Info: osp.InfoOf(inst), Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if len(in.Slots()) != 1 {
			t.Fatalf("pinned instance hosted on %d slots", len(in.Slots()))
		}
		slotsUsed[in.Slots()[0]] = true
		ingestAll(t, in, inst, 111)
		res, err := in.Drain(ctx)
		if err != nil {
			t.Fatal(err)
		}
		serial, err := osp.Run(inst, osp.NewHashRandPr(seed), nil)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Equal(serial) {
			t.Fatalf("instance %s drained result differs from serial oracle", in.ID())
		}
	}
	if len(slotsUsed) < 2 {
		t.Fatalf("8 pinned instances all landed on %d slot(s) — ring not spreading", len(slotsUsed))
	}
}

// TestRingDeterminism pins the placement function itself: the ring is a
// pure function of the slot count, so two coordinators — or a restarted
// one — agree on every placement; and slot identity is positional, so a
// replacement inherits its predecessor's keys exactly.
func TestRingDeterminism(t *testing.T) {
	a := cluster.NewRing(5)
	b := cluster.NewRing(5)
	used := map[int]int{}
	for k := 0; k < 200; k++ {
		key := fmt.Sprintf("c-%d", k)
		if a.Lookup(key) != b.Lookup(key) {
			t.Fatalf("rings disagree on %q", key)
		}
		used[a.Lookup(key)]++
	}
	if len(used) != 5 {
		t.Fatalf("200 keys over 5 slots used only %d slots: %v", len(used), used)
	}
}

// TestClusterOwnerStable pins element fan-out ownership: a pure function
// of (seed, element), identical across coordinator restarts, so a
// replacement node receives exactly the shares its dead predecessor
// owned.
func TestClusterOwnerStable(t *testing.T) {
	ctx := context.Background()
	inst := workload(t, 20, 400, 3, 7)
	co1, _ := startFleet(t, 3, cluster.Config{})
	co2, _ := startFleet(t, 3, cluster.Config{})
	in1, err := co1.Register(ctx, cluster.Spec{Info: osp.InfoOf(inst), Seed: 5, FanOut: true})
	if err != nil {
		t.Fatal(err)
	}
	in2, err := co2.Register(ctx, cluster.Spec{Info: osp.InfoOf(inst), Seed: 5, FanOut: true})
	if err != nil {
		t.Fatal(err)
	}
	owners := map[int]int{}
	for _, el := range inst.Elements {
		if in1.Owner(el) != in2.Owner(el) {
			t.Fatal("element ownership differs between identical coordinators")
		}
		owners[in1.Owner(el)]++
	}
	if len(owners) != 3 {
		t.Fatalf("%d elements over 3 nodes used only %d: %v", len(inst.Elements), len(owners), owners)
	}
}

// TestClusterOwnerBalance pins the fan-out hash's spread: over 10^4
// elements each of 3 and of 4 slots owns within ±10% of the mean, and a
// different seed places the elements differently.
func TestClusterOwnerBalance(t *testing.T) {
	ctx := context.Background()
	inst := workload(t, 1000, 10000, 8, 19)
	for _, nodes := range []int{3, 4} {
		co, _ := startFleet(t, nodes, cluster.Config{})
		a, err := co.Register(ctx, cluster.Spec{Info: osp.InfoOf(inst), Seed: 5, FanOut: true})
		if err != nil {
			t.Fatal(err)
		}
		b, err := co.Register(ctx, cluster.Spec{Info: osp.InfoOf(inst), Seed: 6, FanOut: true})
		if err != nil {
			t.Fatal(err)
		}
		owned := make([]int, nodes)
		moved := 0
		for _, el := range inst.Elements {
			owned[a.Owner(el)]++
			if a.Owner(el) != b.Owner(el) {
				moved++
			}
		}
		mean := float64(len(inst.Elements)) / float64(nodes)
		for slot, n := range owned {
			if d := float64(n)/mean - 1; d < -0.1 || d > 0.1 {
				t.Errorf("%d slots: slot %d owns %d elements, %.1f%% off the mean %.0f", nodes, slot, n, 100*d, mean)
			}
		}
		if moved < len(inst.Elements)/2 {
			t.Errorf("%d slots: seeds 5 and 6 place only %d of %d elements differently", nodes, moved, len(inst.Elements))
		}
	}
}

// TestClusterVerdictRemap pins the map from a share's verdicts back to
// batch indices: fan-out callbacks on 2 and 3 nodes give every element
// the admitted sets a pinned single-node instance gives it, element by
// element, including 1-element batches that leave slots without a share.
func TestClusterVerdictRemap(t *testing.T) {
	ctx := context.Background()
	const seed = 29
	inst := workload(t, 30, 500, 4, 53)
	verdicts := func(in *cluster.Instance, batch int) [][]osp.SetID {
		t.Helper()
		got := make([][]osp.SetID, len(inst.Elements))
		for off := 0; off < len(inst.Elements); off += batch {
			els := inst.Elements[off:min(off+batch, len(inst.Elements))]
			err := in.Ingest(ctx, els, func(i int, adm []osp.SetID) {
				if got[off+i] != nil {
					t.Errorf("element %d called back twice", off+i)
				}
				got[off+i] = append([]osp.SetID{}, adm...)
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		for i, adm := range got {
			if adm == nil {
				t.Fatalf("element %d never called back", i)
			}
		}
		return got
	}
	single, _ := startFleet(t, 1, cluster.Config{})
	fleets := map[int]*cluster.Coordinator{}
	for _, nodes := range []int{2, 3} {
		fleets[nodes], _ = startFleet(t, nodes, cluster.Config{})
	}
	for _, batch := range []int{1, 2, 173} {
		pinned, err := single.Register(ctx, cluster.Spec{Info: osp.InfoOf(inst), Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		want := verdicts(pinned, batch)
		for _, nodes := range []int{2, 3} {
			in, err := fleets[nodes].Register(ctx, cluster.Spec{Info: osp.InfoOf(inst), Seed: seed, FanOut: true})
			if err != nil {
				t.Fatal(err)
			}
			for i, adm := range verdicts(in, batch) {
				if !slices.Equal(adm, want[i]) {
					t.Fatalf("batch %d, %d nodes: element %d admitted %v, pinned single node %v", batch, nodes, i, adm, want[i])
				}
			}
		}
	}
}

// TestCoordinatorSteadyStateAllocs is the coordinator's alloc gate: once
// its scratch and the streams are warm, forwarding a 2048-element batch
// to 2 in-process nodes and back allocates at most a handful of objects
// per batch, process-wide (the nodes' own allocations included).
func TestCoordinatorSteadyStateAllocs(t *testing.T) {
	ctx := context.Background()
	inst := workload(t, 200, 16384, 8, 21)
	const batch = 2048
	co, _ := startFleet(t, 2, cluster.Config{})
	for _, tc := range []struct {
		name   string
		fanOut bool
		limit  float64
	}{{"fan-out", true, 16}, {"pinned", false, 8}} {
		t.Run(tc.name, func(t *testing.T) {
			in, err := co.Register(ctx, cluster.Spec{Info: osp.InfoOf(inst), Seed: 3, FanOut: tc.fanOut})
			if err != nil {
				t.Fatal(err)
			}
			admitted := 0
			fn := func(_ int, adm []osp.SetID) { admitted += len(adm) }
			pos := 0
			ingest := func() {
				off := pos % (len(inst.Elements) / batch) * batch
				pos++
				if err := in.Ingest(ctx, inst.Elements[off:off+batch], fn); err != nil {
					t.Fatal(err)
				}
			}
			// Two turns of the nodes' 32-slot stream window, so every
			// slot's decode buffers have reached their batch size.
			for k := 0; k < 64; k++ {
				ingest()
			}
			allocs := testing.AllocsPerRun(30, ingest)
			t.Logf("%s: %.1f allocs per %d-element batch", tc.name, allocs, batch)
			if allocs > tc.limit {
				t.Errorf("%s: %.1f allocs per batch, want <= %.0f", tc.name, allocs, tc.limit)
			}
		})
	}
}

// TestClusterMetrics exercises the Prometheus exposition: fleet gauges,
// per-node traffic counters with slot/node labels, and the forward
// latency histogram with a well-formed +Inf bucket.
func TestClusterMetrics(t *testing.T) {
	ctx := context.Background()
	co, _ := startFleet(t, 2, cluster.Config{})
	inst := workload(t, 20, 400, 3, 13)
	in, err := co.Register(ctx, cluster.Spec{Info: osp.InfoOf(inst), Seed: 3, FanOut: true})
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, in, inst, 100)
	if _, err := in.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	co.WriteMetrics(&b)
	text := b.String()
	for _, want := range []string{
		"osp_cluster_nodes 2",
		"osp_cluster_instances 1",
		`osp_cluster_node_info{slot="0"`,
		`osp_cluster_node_batches_total{slot="1"`,
		`osp_cluster_node_elements_total{slot="0"`,
		"osp_cluster_failovers_total 0",
		"osp_cluster_lost_elements_total 0",
		`osp_cluster_forward_duration_seconds_bucket{le="+Inf"}`,
		"osp_cluster_forward_duration_seconds_count",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestNewRejectsStreamConns: one stream connection reaches every shard
// of a node, so the coordinator accepts StreamConns 0 or 1 and nothing
// else.
func TestNewRejectsStreamConns(t *testing.T) {
	nodes := []cluster.Node{{BaseURL: "http://127.0.0.1:1"}}
	for _, n := range []int{0, 1} {
		if _, err := cluster.New(cluster.Config{Nodes: nodes, StreamConns: n}); err != nil {
			t.Errorf("StreamConns %d: %v", n, err)
		}
	}
	for _, n := range []int{-1, 2, 4} {
		if _, err := cluster.New(cluster.Config{Nodes: nodes, StreamConns: n}); err == nil {
			t.Errorf("StreamConns %d accepted", n)
		}
	}
}

package cluster_test

import (
	"context"
	"fmt"
	"math/rand"
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
// pure function of (slots, vnodes), so two coordinators — or a restarted
// one — agree on every placement; and slot identity is positional, so a
// replacement inherits its predecessor's keys exactly.
func TestRingDeterminism(t *testing.T) {
	a := cluster.NewRing(5, 0)
	b := cluster.NewRing(5, 0)
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
		"osp_cluster_registrations_total 1",
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

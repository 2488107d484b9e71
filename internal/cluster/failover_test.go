package cluster_test

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/osp"
)

// The fault-injection suite: kill a node mid-stream (pinned verdict
// streams are live when the node dies), assert the coordinator surfaces
// a *NodeError and retains the failed share, re-register the instance
// on a replacement via ReplaceNode, and pin the recovery
// semantics — journal on: merged drain bit-for-bit equal to an
// uninterrupted run; journal off: equal to the oracle over the
// surviving element subsequence, with the dead node's acked elements
// explicitly accounted by Instance.Lost. Runs under -race in CI.

// killAndReplace kills the node at slot, asserts the next ingest fails
// with a NodeError naming it, starts a replacement and replays onto it.
// Returns the failed batch so callers know what was retained in flight.
func killAndReplace(t *testing.T, co *cluster.Coordinator, nodes []*cluster.LocalNode,
	slot int, in *cluster.Instance, failBatch []osp.Element) {
	t.Helper()
	ctx := context.Background()
	nodes[slot].Kill()
	err := in.Ingest(ctx, failBatch, nil)
	var ne *cluster.NodeError
	if !errors.As(err, &ne) {
		t.Fatalf("ingest against killed node = %v, want *NodeError", err)
	}
	if ne.Slot != slot {
		t.Fatalf("NodeError names slot %d, killed %d", ne.Slot, slot)
	}
	repl, err := cluster.StartLocalNode(osp.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { repl.Shutdown(context.Background()) }) //nolint:errcheck
	if err := co.ReplaceNode(ctx, slot, repl.Config()); err != nil {
		t.Fatalf("ReplaceNode: %v", err)
	}
}

// TestRegisterFailureRemovesPartial: a fan-out Register that one node
// refuses is undone on the nodes that accepted it. The coordinator
// keeps no Instance for a failed Register, so a partial registration
// left behind would hold its shard workers and per-set counters with
// nothing able to drain or remove it.
func TestRegisterFailureRemovesPartial(t *testing.T) {
	ctx := context.Background()
	co, nodes := startFleet(t, 2, cluster.Config{})
	nodes[1].Kill()
	inst := workload(t, 20, 200, 3, 5)
	_, err := co.Register(ctx, cluster.Spec{Info: osp.InfoOf(inst), Seed: 1, FanOut: true})
	var ne *cluster.NodeError
	if !errors.As(err, &ne) || ne.Slot != 1 {
		t.Fatalf("Register with slot 1 dead = %v, want a *NodeError for slot 1", err)
	}
	if n := nodes[0].Server().Pool().Len(); n != 0 {
		t.Fatalf("node 0 holds %d instance(s) after the failed Register, want 0", n)
	}
}

// TestFailoverJournalExact: with the journal on, killing a node
// mid-stream and replaying onto a replacement is EXACT — the merged
// drain is bit-for-bit equal to an uninterrupted run (the serial
// oracle over all elements), nothing lost, nothing double-counted.
func TestFailoverJournalExact(t *testing.T) {
	for _, fanOut := range []bool{true, false} {
		name := "fanout"
		if !fanOut {
			name = "pinned"
		}
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			const seed = 43
			inst := workload(t, 40, 2000, 4, 17)
			co, nodes := startFleet(t, 3, cluster.Config{Journal: true})
			in, err := co.Register(ctx, cluster.Spec{
				Info: osp.InfoOf(inst), Seed: seed, FanOut: fanOut,
				Engine: osp.EngineConfig{Shards: 2},
			})
			if err != nil {
				t.Fatal(err)
			}
			victim := in.Slots()[0] // a slot that certainly hosts the instance

			const batch = 150
			half := len(inst.Elements) / 2 / batch * batch
			for off := 0; off < half; off += batch {
				if err := in.Ingest(ctx, inst.Elements[off:off+batch], nil); err != nil {
					t.Fatal(err)
				}
			}
			killAndReplace(t, co, nodes, victim, in, inst.Elements[half:half+batch])
			for off := half + batch; off < len(inst.Elements); off += batch {
				if err := in.Ingest(ctx, inst.Elements[off:min(off+batch, len(inst.Elements))], nil); err != nil {
					t.Fatal(err)
				}
			}
			res, err := in.Drain(ctx)
			if err != nil {
				t.Fatal(err)
			}
			serial, err := osp.Run(inst, osp.NewHashRandPr(seed), nil)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Equal(serial) {
				t.Fatal("journal-on failover drain differs from uninterrupted serial oracle")
			}
			if in.Lost() != 0 {
				t.Fatalf("Lost() = %d with the journal on, want 0", in.Lost())
			}
		})
	}
}

// TestFailoverUpgradeStream: the failover from a fleet named by
// Node.StreamAddr — each pinned stream dials a raw ServeStream listener
// instead of upgrading the node's HTTP connection, the way the
// end-to-end benchmark's fleet streams — onto a replacement named by
// its base URL alone, which streams through the upgrade. A kill
// mid-stream closes the victim's listener and tears its connections
// down, the coordinator sees a *NodeError, and with the journal on the
// replay is exact.
func TestFailoverUpgradeStream(t *testing.T) {
	ctx := context.Background()
	const seed = 59
	inst := workload(t, 40, 2000, 4, 23)
	nodes := make([]*cluster.LocalNode, 3)
	cfg := cluster.Config{Journal: true, StreamConns: 1}
	for i := range nodes {
		ln, err := cluster.StartLocalNode(osp.ServerConfig{})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = ln
		t.Cleanup(func() { ln.Shutdown(context.Background()) }) //nolint:errcheck
		raw, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go ln.Server().ServeStream(raw) //nolint:errcheck // closed by Kill or Shutdown
		cfg.Nodes = append(cfg.Nodes, cluster.Node{BaseURL: ln.Config().BaseURL, StreamAddr: raw.Addr().String()})
	}
	co, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { co.Close() }) //nolint:errcheck
	in, err := co.Register(ctx, cluster.Spec{
		Info: osp.InfoOf(inst), Seed: seed, FanOut: true,
		Engine: osp.EngineConfig{Shards: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	victim := in.Slots()[0]

	const batch = 137
	half := len(inst.Elements) / 2 / batch * batch
	for off := 0; off < half; off += batch {
		if err := in.Ingest(ctx, inst.Elements[off:off+batch], nil); err != nil {
			t.Fatal(err)
		}
	}
	for i, ln := range nodes {
		if got := nodeMetric(t, ln.Config().BaseURL, "osp_stream_connections_active"); got != 1 {
			t.Fatalf("slot %d holds %d stream connections before the kill, want 1", i, got)
		}
		if got := nodeMetric(t, ln.Config().BaseURL, `osp_http_requests_total{handler="GET /v1/stream",code="101"}`); got != 0 {
			t.Fatalf("slot %d answered %d stream upgrades, want 0: every stream dials its StreamAddr", i, got)
		}
	}
	killAndReplace(t, co, nodes, victim, in, inst.Elements[half:half+batch])
	for off := half + batch; off < len(inst.Elements); off += batch {
		if err := in.Ingest(ctx, inst.Elements[off:min(off+batch, len(inst.Elements))], nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := nodeMetric(t, co.Nodes()[victim].BaseURL, `osp_http_requests_total{handler="GET /v1/stream",code="101"}`); got != 1 {
		t.Fatalf("the replacement answered %d stream upgrades, want 1", got)
	}
	res, err := in.Drain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := osp.Run(inst, osp.NewHashRandPr(seed), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equal(serial) {
		t.Fatal("failover drain differs from uninterrupted serial oracle")
	}
	if in.Lost() != 0 {
		t.Fatalf("Lost() = %d with the journal on, want 0", in.Lost())
	}
}

// nodeMetric reads one series from a node's /metrics as an integer,
// 0 when the series is absent.
func nodeMetric(t *testing.T, base, series string) int {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(text), "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				t.Fatalf("%s: %v", series, err)
			}
			return n
		}
	}
	return 0
}

// TestFailoverNoJournalAccounted: without the journal, the dead node's
// ACKED elements are gone and say so — Instance.Lost counts exactly
// them — while the unacked in-flight share is retained and resent, so
// the merged drain equals the serial oracle over the surviving element
// subsequence. "Modulo explicitly-accounted in-flight batches" made
// precise.
func TestFailoverNoJournalAccounted(t *testing.T) {
	ctx := context.Background()
	const seed = 51
	inst := workload(t, 40, 2000, 4, 19)
	co, nodes := startFleet(t, 3, cluster.Config{})
	in, err := co.Register(ctx, cluster.Spec{
		Info: osp.InfoOf(inst), Seed: seed, FanOut: true,
		Engine: osp.EngineConfig{Shards: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	const victim = 1

	const batch = 150
	half := len(inst.Elements) / 2 / batch * batch
	for off := 0; off < half; off += batch {
		if err := in.Ingest(ctx, inst.Elements[off:off+batch], nil); err != nil {
			t.Fatal(err)
		}
	}
	killAndReplace(t, co, nodes, victim, in, inst.Elements[half:half+batch])
	for off := half + batch; off < len(inst.Elements); off += batch {
		if err := in.Ingest(ctx, inst.Elements[off:min(off+batch, len(inst.Elements))], nil); err != nil {
			t.Fatal(err)
		}
	}
	res, err := in.Drain(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// The surviving subsequence: everything except elements the dead
	// node had ACKED before the kill (its share of the first `half`).
	// The in-flight batch at the kill was never acked — retained and
	// resent, so it survives. Decisions are pure per element, so the
	// oracle over the filtered sequence is the ground truth.
	surviving := &osp.Instance{Weights: inst.Weights, Sizes: inst.Sizes}
	lost := uint64(0)
	for i, el := range inst.Elements {
		if i < half && in.Owner(el) == victim {
			lost++
			continue
		}
		surviving.Elements = append(surviving.Elements, el)
	}
	if lost == 0 {
		t.Fatal("test is vacuous: the dead node owned no acked elements")
	}
	if in.Lost() != lost {
		t.Fatalf("Lost() = %d, want %d (the dead node's acked share)", in.Lost(), lost)
	}
	serial, err := osp.Run(surviving, osp.NewHashRandPr(seed), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equal(serial) {
		t.Fatal("journal-off failover drain differs from oracle over surviving elements")
	}
}

// TestFailoverConcurrentIngest races live traffic against the kill: one
// goroutine streams batches while the main goroutine kills the victim
// node. Every batch either succeeds or fails with a NodeError (retained
// share); after ReplaceNode and the remaining traffic, the journal-on
// drain still equals the uninterrupted oracle exactly. Primarily a
// -race exercise of the coordinator's locking.
func TestFailoverConcurrentIngest(t *testing.T) {
	ctx := context.Background()
	const seed = 77
	inst := workload(t, 40, 2400, 4, 23)
	co, nodes := startFleet(t, 3, cluster.Config{Journal: true})
	in, err := co.Register(ctx, cluster.Spec{Info: osp.InfoOf(inst), Seed: seed, FanOut: true})
	if err != nil {
		t.Fatal(err)
	}
	const victim, batch = 2, 120

	half := len(inst.Elements) / 2 / batch * batch
	killAt := half / 2
	killed := make(chan struct{})
	done := make(chan int) // first offset that failed, or -1
	go func() {
		firstFail := -1
		for off := 0; off < half; off += batch {
			if off == killAt {
				nodes[victim].Kill()
				close(killed)
			}
			err := in.Ingest(ctx, inst.Elements[off:off+batch], nil)
			var ne *cluster.NodeError
			switch {
			case err == nil:
			case errors.As(err, &ne) && ne.Slot == victim:
				if firstFail < 0 {
					firstFail = off
				}
			default:
				t.Errorf("ingest at %d: %v", off, err)
			}
		}
		done <- firstFail
	}()
	<-killed
	firstFail := <-done
	repl, err := cluster.StartLocalNode(osp.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { repl.Shutdown(context.Background()) }) //nolint:errcheck
	if err := co.ReplaceNode(ctx, victim, repl.Config()); err != nil {
		t.Fatal(err)
	}
	for off := half; off < len(inst.Elements); off += batch {
		if err := in.Ingest(ctx, inst.Elements[off:min(off+batch, len(inst.Elements))], nil); err != nil {
			t.Fatal(err)
		}
	}
	res, err := in.Drain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := osp.Run(inst, osp.NewHashRandPr(seed), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equal(serial) {
		t.Fatalf("concurrent-kill journal-on drain differs from oracle (first failed ingest at offset %d)", firstFail)
	}
	if in.Lost() != 0 {
		t.Fatalf("Lost() = %d with the journal on", in.Lost())
	}
}

// TestFailoverMetrics: a failover leaves its trace — the failovers and
// resent counters move, and the journaled replay loses nothing.
func TestFailoverMetrics(t *testing.T) {
	ctx := context.Background()
	const seed = 29
	inst := workload(t, 30, 900, 3, 31)
	co, nodes := startFleet(t, 2, cluster.Config{Journal: true})
	in, err := co.Register(ctx, cluster.Spec{
		Info: osp.InfoOf(inst), Seed: seed, FanOut: true, Label: "failover-demo",
	})
	if err != nil {
		t.Fatal(err)
	}
	const batch = 90
	third := len(inst.Elements) / 3 / batch * batch
	for off := 0; off < third; off += batch {
		if err := in.Ingest(ctx, inst.Elements[off:off+batch], nil); err != nil {
			t.Fatal(err)
		}
	}
	killAndReplace(t, co, nodes, 0, in, inst.Elements[third:third+batch])
	for off := third + batch; off < len(inst.Elements); off += batch {
		if err := in.Ingest(ctx, inst.Elements[off:min(off+batch, len(inst.Elements))], nil); err != nil {
			t.Fatal(err)
		}
	}
	res, err := in.Drain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := osp.Run(inst, osp.NewHashRandPr(seed), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equal(serial) {
		t.Fatal("drain differs from oracle after a journaled failover")
	}

	var b strings.Builder
	co.WriteMetrics(&b)
	text := b.String()
	for _, want := range []string{
		"osp_cluster_failovers_total 1",
		"osp_cluster_lost_elements_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if !strings.Contains(text, "osp_cluster_resent_elements_total") ||
		strings.Contains(text, "osp_cluster_resent_elements_total 0\n") {
		t.Error("resent counter missing or zero after a journaled failover")
	}
}

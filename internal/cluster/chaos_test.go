package cluster_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/faultproxy"
	"repro/osp"
	"repro/osp/client"
)

// The chaos suite: every fault class internal/faultproxy can inject —
// plus outright process death — driven against a live fleet with the
// health monitor armed, under -race in CI. The assertions are the
// repo's two recovery oracles: with the element journal on, the merged
// drain is bit-for-bit equal to the serial oracle over ALL elements;
// without it, equal to the oracle over the surviving subsequence with
// the dead node's acknowledged share counted in Instance.Lost. No test
// here calls ReplaceNode — that is the point.

// chaosHealth is the fast-probing monitor config the suite arms.
func chaosHealth(spare cluster.Node) cluster.HealthConfig {
	return cluster.HealthConfig{
		Interval:       25 * time.Millisecond,
		Timeout:        80 * time.Millisecond,
		FailThreshold:  2,
		Spares:         []cluster.Node{spare},
		FailoverBudget: 20 * time.Second,
	}
}

// chaosRetry is the deadline-budgeted client retry the coordinator
// threads through its node clients: short enough that a dead node
// surfaces as a retained share quickly, long enough to ride out blips.
func chaosRetry() *client.RetryPolicy {
	return &client.RetryPolicy{
		MaxAttempts: 2,
		BaseBackoff: 10 * time.Millisecond,
		PerAttempt:  150 * time.Millisecond,
		Budget:      500 * time.Millisecond,
	}
}

// startSpare boots a LocalNode used as the failover spare.
func startSpare(t *testing.T) *cluster.LocalNode {
	t.Helper()
	spare, err := cluster.StartLocalNode(osp.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { spare.Shutdown(context.Background()) }) //nolint:errcheck
	return spare
}

// TestChaosKillAutoFailoverZeroOperator is the tentpole acceptance pin:
// a node dies mid-load (LocalNode.Kill — the in-process kill -9) with
// auto-failover armed and a spare configured, the producer keeps
// calling Ingest and nothing else, and the drain completes. Journal on:
// bit-for-bit the uninterrupted serial oracle. Journal off: the oracle
// over the surviving subsequence, with Lost naming exactly the dead
// node's acknowledged share.
func TestChaosKillAutoFailoverZeroOperator(t *testing.T) {
	for _, journal := range []bool{true, false} {
		name := "journal"
		if !journal {
			name = "no-journal"
		}
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			const seed = 61
			inst := workload(t, 40, 1800, 4, 37)
			co, nodes := startFleet(t, 2, cluster.Config{Journal: journal})
			spare := startSpare(t)
			mon := co.StartHealth(chaosHealth(spare.Config()))
			defer mon.Stop()

			in, err := co.Register(ctx, cluster.Spec{
				Info: osp.InfoOf(inst), Seed: seed, FanOut: true,
				Engine: osp.EngineConfig{Shards: 2},
			})
			if err != nil {
				t.Fatal(err)
			}
			const victim, batch = 1, 120
			half := len(inst.Elements) / 2 / batch * batch
			for off := 0; off < half; off += batch {
				if err := in.Ingest(ctx, inst.Elements[off:off+batch], nil); err != nil {
					t.Fatal(err)
				}
			}
			nodes[victim].Kill()
			// Zero operator commands from here: the producer just keeps
			// ingesting; failed shares ride through the automatic failover.
			for off := half; off < len(inst.Elements); off += batch {
				if err := in.Ingest(ctx, inst.Elements[off:min(off+batch, len(inst.Elements))], nil); err != nil {
					t.Fatalf("ingest at %d did not ride through the failover: %v", off, err)
				}
			}
			res, err := in.Drain(ctx)
			if err != nil {
				t.Fatal(err)
			}
			// The monitor counts a failover only once ReplaceNode has
			// returned, which can be after the replayed share rode through
			// and the drain finished; Stop waits for that goroutine.
			mon.Stop()
			if mon.AutoFailovers() != 1 {
				t.Fatalf("auto failovers = %d, want 1", mon.AutoFailovers())
			}
			if mon.SpareCount() != 0 {
				t.Fatalf("spare pool = %d, want 0 (consumed)", mon.SpareCount())
			}

			if journal {
				serial, err := osp.Run(inst, osp.NewHashRandPr(seed), nil)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Equal(serial) {
					t.Fatal("journal-on auto-failover drain differs from uninterrupted serial oracle")
				}
				if in.Lost() != 0 {
					t.Fatalf("Lost() = %d with the journal on, want 0", in.Lost())
				}
				return
			}
			// Journal off: the dead node's acked elements (its share of
			// the first half) are lost and accounted; everything else —
			// including the retained in-flight share the replay resent —
			// survives.
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
				t.Fatal("journal-off auto-failover drain differs from oracle over surviving elements")
			}
		})
	}
}

// TestChaosFaultClasses drives each network fault class through a
// faultproxy interposed between the coordinator and one node. The
// faulted node goes dead to the health monitor, the automatic failover
// replays onto the spare, in-flight batches ride through, and with the
// journal on the drain stays exact — for every way the network can lie.
func TestChaosFaultClasses(t *testing.T) {
	classes := []struct {
		name  string
		fault faultproxy.Fault
	}{
		{"blackhole", faultproxy.Fault{Mode: faultproxy.Blackhole}},
		{"reset", faultproxy.Fault{Mode: faultproxy.Reset, AfterBytes: 0}},
		{"truncate-mid-frame", faultproxy.Fault{Mode: faultproxy.Truncate, AfterBytes: 64}},
		{"drop", faultproxy.Fault{Mode: faultproxy.Drop}},
	}
	for _, tc := range classes {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			const seed = 67
			inst := workload(t, 35, 1500, 4, 41)

			direct, err := cluster.StartLocalNode(osp.ServerConfig{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { direct.Shutdown(context.Background()) }) //nolint:errcheck
			victim, err := cluster.StartLocalNode(osp.ServerConfig{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { victim.Shutdown(context.Background()) }) //nolint:errcheck
			proxy, err := faultproxy.New(strings.TrimPrefix(victim.Config().BaseURL, "http://"))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { proxy.Close() })
			spare := startSpare(t)

			// Slot 1 is reached only through the proxy (HTTP-only so every
			// byte crosses the fault path).
			co, err := cluster.New(cluster.Config{
				Nodes: []cluster.Node{
					direct.Config(),
					{BaseURL: "http://" + proxy.Addr()},
				},
				Journal: true,
				Retry:   chaosRetry(),
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { co.Close() }) //nolint:errcheck
			mon := co.StartHealth(chaosHealth(spare.Config()))
			defer mon.Stop()

			in, err := co.Register(ctx, cluster.Spec{
				Info: osp.InfoOf(inst), Seed: seed, FanOut: true,
				Engine: osp.EngineConfig{Shards: 2},
			})
			if err != nil {
				t.Fatal(err)
			}
			const batch = 120
			third := len(inst.Elements) / 3 / batch * batch
			for off := 0; off < third; off += batch {
				if err := in.Ingest(ctx, inst.Elements[off:off+batch], nil); err != nil {
					t.Fatal(err)
				}
			}
			// Inject the fault; cut live keep-alive connections so the
			// fault is felt immediately, not on the next fresh dial.
			proxy.Set(tc.fault)
			proxy.CutConns()
			for off := third; off < len(inst.Elements); off += batch {
				if err := in.Ingest(ctx, inst.Elements[off:min(off+batch, len(inst.Elements))], nil); err != nil {
					t.Fatalf("ingest at %d did not ride through the %s fault: %v", off, tc.name, err)
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
				t.Fatalf("%s: journal-on drain differs from uninterrupted serial oracle", tc.name)
			}
			if in.Lost() != 0 {
				t.Fatalf("Lost() = %d with the journal on, want 0", in.Lost())
			}
			mon.Stop() // waits for the failover goroutine to count its replay
			if mon.AutoFailovers() != 1 {
				t.Fatalf("auto failovers = %d, want exactly 1", mon.AutoFailovers())
			}
		})
	}
}

// TestChaosDelayIsNotDeath pins the suspect arm: added latency slows
// traffic but probes still succeed, so the monitor must NOT burn the
// spare — slow is not dead.
func TestChaosDelayIsNotDeath(t *testing.T) {
	ctx := context.Background()
	const seed = 71
	inst := workload(t, 25, 600, 3, 43)

	node, err := cluster.StartLocalNode(osp.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Shutdown(context.Background()) }) //nolint:errcheck
	proxy, err := faultproxy.New(strings.TrimPrefix(node.Config().BaseURL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })
	spare := startSpare(t)

	co, err := cluster.New(cluster.Config{
		Nodes:   []cluster.Node{{BaseURL: "http://" + proxy.Addr()}},
		Journal: true,
		Retry:   chaosRetry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { co.Close() }) //nolint:errcheck
	cfg := chaosHealth(spare.Config())
	cfg.Timeout = 120 * time.Millisecond // latency fits inside the probe budget
	mon := co.StartHealth(cfg)
	defer mon.Stop()

	in, err := co.Register(ctx, cluster.Spec{Info: osp.InfoOf(inst), Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	proxy.Set(faultproxy.Fault{Mode: faultproxy.Delay, Latency: 10 * time.Millisecond})
	const batch = 150
	for off := 0; off < len(inst.Elements); off += batch {
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
		t.Fatal("delayed drain differs from oracle")
	}
	if mon.AutoFailovers() != 0 {
		t.Fatalf("auto failovers = %d under mere latency, want 0", mon.AutoFailovers())
	}
	if mon.SpareCount() != 1 {
		t.Fatalf("spare pool = %d, want 1 (untouched)", mon.SpareCount())
	}
}

// TestChaosHealthMetricsAndEvents pins the observable surface: the
// metrics exposition carries the per-slot health gauge and failover
// counters, and the event hook saw the healthy→suspect→dead→healthy
// walk.
func TestChaosHealthMetricsAndEvents(t *testing.T) {
	ctx := context.Background()
	inst := workload(t, 20, 400, 3, 47)
	co, nodes := startFleet(t, 2, cluster.Config{Journal: true})
	spare := startSpare(t)

	events := make(chan cluster.HealthEvent, 64)
	cfg := chaosHealth(spare.Config())
	cfg.OnEvent = func(ev cluster.HealthEvent) {
		select {
		case events <- ev:
		default:
		}
	}
	mon := co.StartHealth(cfg)
	defer mon.Stop()

	in, err := co.Register(ctx, cluster.Spec{Info: osp.InfoOf(inst), Seed: 5, FanOut: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Ingest(ctx, inst.Elements[:100], nil); err != nil {
		t.Fatal(err)
	}
	const victim = 0
	nodes[victim].Kill()
	if err := in.Ingest(ctx, inst.Elements[100:200], nil); err != nil {
		t.Fatalf("ingest did not ride through: %v", err)
	}

	// The walk must have passed through suspect and dead on the way to
	// the failover's healthy.
	deadline := time.After(10 * time.Second)
	sawSuspect, sawDead, sawFailover := false, false, false
	for !sawFailover {
		select {
		case ev := <-events:
			if ev.Slot != victim {
				continue
			}
			switch {
			case ev.To == cluster.NodeSuspect:
				sawSuspect = true
			case ev.To == cluster.NodeDead:
				sawDead = true
			case ev.Failover && ev.Err == nil && ev.To == cluster.NodeHealthy:
				sawFailover = true
			}
		case <-deadline:
			t.Fatalf("no successful failover event (suspect=%v dead=%v)", sawSuspect, sawDead)
		}
	}
	if !sawSuspect || !sawDead {
		t.Errorf("state walk skipped a stage: suspect=%v dead=%v", sawSuspect, sawDead)
	}

	var b strings.Builder
	co.WriteMetrics(&b)
	text := b.String()
	for _, want := range []string{
		"osp_cluster_node_health{slot=\"0\"",
		"osp_cluster_node_health{slot=\"1\"",
		"osp_cluster_auto_failovers_total 1",
		"osp_cluster_spares 0",
		"osp_cluster_probe_failures_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestRetryWithoutMonitor pins Config.Retry on its own: with no health
// monitor to fail over, a cut connection to one node is ridden through
// by the node client's retry alone — every later Ingest returns nil,
// every element is called back exactly once, and the drain equals the
// serial oracle.
func TestRetryWithoutMonitor(t *testing.T) {
	ctx := context.Background()
	const seed = 73
	inst := workload(t, 30, 1200, 4, 59)
	direct, err := cluster.StartLocalNode(osp.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { direct.Shutdown(context.Background()) }) //nolint:errcheck
	behind, err := cluster.StartLocalNode(osp.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { behind.Shutdown(context.Background()) }) //nolint:errcheck
	proxy, err := faultproxy.New(strings.TrimPrefix(behind.Config().BaseURL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })
	co, err := cluster.New(cluster.Config{
		Nodes: []cluster.Node{direct.Config(), {BaseURL: "http://" + proxy.Addr()}},
		Retry: chaosRetry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { co.Close() }) //nolint:errcheck
	in, err := co.Register(ctx, cluster.Spec{Info: osp.InfoOf(inst), Seed: seed, FanOut: true})
	if err != nil {
		t.Fatal(err)
	}
	const batch = 100
	for off := 0; off < len(inst.Elements); off += batch {
		if off == len(inst.Elements)/2/batch*batch {
			proxy.CutConns()
		}
		els := inst.Elements[off:min(off+batch, len(inst.Elements))]
		calls := make([]int, len(els))
		if err := in.Ingest(ctx, els, func(i int, _ []osp.SetID) { calls[i]++ }); err != nil {
			t.Fatalf("ingest at %d: %v", off, err)
		}
		for i, n := range calls {
			if n != 1 {
				t.Fatalf("ingest at %d: element %d called back %d times", off, i, n)
			}
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
		t.Fatal("drain after a retried cut differs from the serial oracle")
	}
}

// Command ospcluster runs an admission cluster end to end: a
// coordinator over N service nodes, one instance placed by consistent
// hashing or fanned out across the fleet by element hash, ingest
// forwarded over each node's verdict stream (an HTTP upgrade of its
// base URL), and the per-node drains merged and cross-checked
// bit-for-bit against the serial policy oracle. With
// -kill it doubles as the failover demo: kill a node mid-stream,
// re-register the instance on a fresh replacement from the Spec the
// coordinator holds, resend the retained shares, and verify the merged
// drain is still exact (journal on) or exactly accounted (journal off,
// Instance.Lost).
//
// Usage:
//
//	ospcluster -spawn 3 -n 100000            # embedded 3-node fleet
//	ospcluster -nodes http://a:8080,http://b:8080
//	ospcluster -spawn 3 -kill 1 -kill-at 0.5 # failover demo mid-stream
//	ospcluster -spawn 3 -kill 1 -journal=false  # lossy failover, accounted
//	ospcluster -spawn 3 -kill 1 -spares 1 -auto-failover  # zero-operator recovery
//	ospcluster -spawn 2 -fanout=false        # pinned placement by ring
//	ospcluster -spawn 2 -print-metrics
//
// With -auto-failover the health monitor probes every slot, declares the
// killed node dead, and replaces it from the -spares pool on its own —
// the ingest loop below never calls ReplaceNode; failed shares ride
// through the failover inside Ingest.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/osp"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ospcluster:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("ospcluster", flag.ContinueOnError)
	var (
		spawn     = fs.Int("spawn", 3, "embedded fleet: number of in-process nodes (ignored with -nodes)")
		nodesFlag = fs.String("nodes", "", "external fleet: comma-separated node base URLs, in slot order")
		m         = fs.Int("m", 200, "uniform workload: number of sets")
		n         = fs.Int("n", 100000, "uniform workload: number of elements")
		load      = fs.Int("load", 8, "uniform workload: element load σ(u)")
		capacity  = fs.Int("cap", 2, "uniform workload: element capacity b(u)")
		seed      = fs.Int64("seed", 1, "workload seed and shared priority seed")
		batch     = fs.Int("batch", 1000, "elements per coordinator ingest batch")
		shards    = fs.Int("shards", 0, "engine shards PER NODE (0 = node default)")
		policy    = fs.String("policy", "", "admission policy: "+strings.Join(osp.PolicyNames(), ", ")+` ("" = `+osp.DefaultPolicy+")")
		fanOut    = fs.Bool("fanout", true, "split the element stream across all nodes by element hash (false pins the instance to one ring slot)")
		journal   = fs.Bool("journal", true, "retain acked shares so node failover is exact")
		kill      = fs.Int("kill", -1, "failover demo: kill the node at this slot mid-stream and replace it (embedded fleet only)")
		killAt    = fs.Float64("kill-at", 0.5, "failover demo: kill after this fraction of the element stream")
		spares    = fs.Int("spares", 0, "embedded fleet: spare nodes booted as the automatic-failover replacement pool")
		autoFail  = fs.Bool("auto-failover", false, "arm the health monitor: dead slots are replaced from the spare pool with zero operator involvement")
		healthIv  = fs.Duration("health-interval", 100*time.Millisecond, "health probe period (with -auto-failover)")
		zipf      = fs.Float64("zipf", 0, "Zipf exponent s for skewed set weights (0 = unit weights)")
		label     = fs.String("label", "cluster", "metrics label for the registered instance")
		verify    = fs.Bool("verify", true, "cross-check the merged drain against the policy's serial oracle")
		printMet  = fs.Bool("print-metrics", false, "dump the coordinator's Prometheus exposition after the drain")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// The health monitor's event hook logs from its own goroutine, so
	// every write to w goes through one lock.
	w = &lockedWriter{w: w}
	if *batch < 1 {
		return fmt.Errorf("batch must be >= 1, got %d", *batch)
	}
	if *killAt < 0 || *killAt >= 1 {
		return fmt.Errorf("kill-at must be in [0,1), got %v", *killAt)
	}
	if *spares < 0 {
		return fmt.Errorf("spares must be >= 0, got %d", *spares)
	}
	if *spares > 0 && *nodesFlag != "" {
		return errors.New("-spares needs an embedded fleet (-spawn); spares are booted in-process")
	}
	if *autoFail && *kill >= 0 && *spares < 1 {
		return errors.New("-auto-failover with -kill needs at least one spare to fail over to")
	}
	var weightFn func(i int) float64
	if *zipf > 0 {
		weightFn = osp.ZipfWeights(*zipf, 10)
	} else if *zipf < 0 {
		return fmt.Errorf("zipf exponent must be >= 0, got %v", *zipf)
	}

	inst, err := osp.RandomInstance(osp.UniformConfig{
		M: *m, N: *n, Load: *load, Capacity: *capacity, WeightFn: weightFn,
	}, rand.New(rand.NewSource(*seed)))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "workload: %v\n", inst)

	// The fleet: embedded loopback nodes by default, external addresses
	// with -nodes. Slot order is the -nodes order — slot identity is what
	// ReplaceNode preserves.
	var (
		fleet    []cluster.Node
		locals   []*cluster.LocalNode
		embedded = ""
	)
	if *nodesFlag != "" {
		for _, b := range strings.Split(*nodesFlag, ",") {
			fleet = append(fleet, cluster.Node{BaseURL: strings.TrimSpace(b)})
		}
		if *kill >= 0 {
			return errors.New("-kill needs an embedded fleet (-spawn); external nodes cannot be killed from here")
		}
	} else {
		if *spawn < 1 {
			return fmt.Errorf("spawn must be >= 1, got %d", *spawn)
		}
		for i := 0; i < *spawn; i++ {
			ln, err := cluster.StartLocalNode(osp.ServerConfig{})
			if err != nil {
				return err
			}
			defer func() {
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				ln.Shutdown(ctx) //nolint:errcheck
			}()
			locals = append(locals, ln)
			fleet = append(fleet, ln.Config())
		}
		embedded = " (embedded)"
	}
	if *kill >= len(fleet) {
		return fmt.Errorf("kill slot %d out of range for %d nodes", *kill, len(fleet))
	}

	// The spare pool: booted up front so a failover only swaps addresses,
	// never waits on process startup.
	var spareNodes []cluster.Node
	for i := 0; i < *spares; i++ {
		sp, err := cluster.StartLocalNode(osp.ServerConfig{})
		if err != nil {
			return err
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			sp.Shutdown(ctx) //nolint:errcheck
		}()
		spareNodes = append(spareNodes, sp.Config())
	}

	co, err := cluster.New(cluster.Config{Nodes: fleet, Journal: *journal})
	if err != nil {
		return err
	}
	defer co.Close() //nolint:errcheck

	var mon *cluster.Monitor
	if *autoFail {
		mon = co.StartHealth(cluster.HealthConfig{
			Interval:      *healthIv,
			FailThreshold: 2,
			Spares:        spareNodes,
			OnEvent: func(ev cluster.HealthEvent) {
				switch {
				case ev.Failover && ev.Err == nil:
					fmt.Fprintf(w, "health:   slot %d auto-failover -> %s, registration replayed, retained shares resent\n",
						ev.Slot, ev.Node)
				case ev.Failover:
					fmt.Fprintf(w, "health:   slot %d auto-failover to %s FAILED: %v\n", ev.Slot, ev.Node, ev.Err)
				default:
					fmt.Fprintf(w, "health:   slot %d %s -> %s\n", ev.Slot, ev.From, ev.To)
				}
			},
		})
		defer mon.Stop()
		fmt.Fprintf(w, "health:   monitor armed, probe every %v, %d spare(s), auto-failover on\n",
			*healthIv, len(spareNodes))
	}

	ctx := context.Background()
	in, err := co.Register(ctx, cluster.Spec{
		Info: osp.InfoOf(inst), Seed: uint64(*seed), FanOut: *fanOut,
		Engine: osp.EngineConfig{Shards: *shards, Policy: *policy},
		Label:  *label,
	})
	if err != nil {
		return err
	}
	journalState := "on"
	if !*journal {
		journalState = "off"
	}
	fmt.Fprintf(w, "fleet:    %d nodes%s, journal %s\n", len(fleet), embedded, journalState)
	fmt.Fprintf(w, "instance: %s on slots %v, policy %s\n", in.ID(), in.Slots(), policyName(*policy))
	if *kill >= 0 && !slices.Contains(in.Slots(), *kill) {
		return fmt.Errorf("kill slot %d does not host instance %s (slots %v) — killing it would be inert",
			*kill, in.ID(), in.Slots())
	}

	// Ingest, with the optional mid-stream kill. The batch that fails
	// against the dead node is retained by the coordinator and resent
	// during ReplaceNode's replay — it is NOT re-ingested here (the
	// surviving nodes' shares of it were already acknowledged).
	killOff := -1
	if *kill >= 0 {
		killOff = int(*killAt*float64(len(inst.Elements))) / *batch * *batch
	}
	var admitted uint64
	count := func(i int, adm []osp.SetID) { admitted += uint64(len(adm)) }
	start := time.Now()
	batches, failedOver := 0, false
	for off := 0; off < len(inst.Elements); off += *batch {
		if off == killOff {
			locals[*kill].Kill()
			fmt.Fprintf(w, "kill:     slot %d down after %d elements\n", *kill, off)
		}
		els := inst.Elements[off:min(off+*batch, len(inst.Elements))]
		err := in.Ingest(ctx, els, count)
		if err == nil {
			batches++
			continue
		}
		var ne *cluster.NodeError
		if !failedOver && killOff >= 0 && !*autoFail && errors.As(err, &ne) && ne.Slot == *kill {
			repl, rerr := cluster.StartLocalNode(osp.ServerConfig{})
			if rerr != nil {
				return rerr
			}
			defer func() {
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				repl.Shutdown(ctx) //nolint:errcheck
			}()
			if rerr := co.ReplaceNode(ctx, *kill, repl.Config()); rerr != nil {
				return fmt.Errorf("replace node %d: %w", *kill, rerr)
			}
			failedOver = true
			fmt.Fprintf(w, "failover: slot %d replaced by %s — registration replayed, retained shares resent\n",
				*kill, repl.Config().BaseURL)
			continue
		}
		return fmt.Errorf("ingest batch at %d: %w", off, err)
	}
	elapsed := time.Since(start)
	if killOff >= 0 && *autoFail {
		// With the monitor armed, the failed ingest rode through the
		// automatic failover inside Ingest — no error ever surfaced here.
		// The success counter can lag the ride-through by one beat.
		for i := 0; mon.AutoFailovers() == 0 && i < 200; i++ {
			time.Sleep(10 * time.Millisecond)
		}
		if mon.AutoFailovers() == 0 {
			return errors.New("kill requested but the health monitor never failed over")
		}
		failedOver = true
	}
	if killOff >= 0 && !failedOver {
		return errors.New("kill requested but no ingest failed against the dead node")
	}

	res, err := in.Drain(ctx)
	if err != nil {
		return err
	}
	sustained := float64(len(inst.Elements)) / elapsed.Seconds()
	fmt.Fprintf(w, "cluster:  %d elements in %v (%.0f elements/sec over %d batches)\n",
		len(inst.Elements), elapsed.Round(time.Microsecond), sustained, batches)
	fmt.Fprintf(w, "goodput:  %d sets completed, weight %.1f of %.1f offered\n",
		len(res.Completed), res.Benefit, inst.TotalWeight())
	if in.Lost() > 0 {
		fmt.Fprintf(w, "lost:     %d elements acked by the dead node (journal off)\n", in.Lost())
	}

	// Without a failover every verdict callback fired exactly once, so
	// the drained assignment counters must equal the admitted total.
	// (Replayed shares are resent verdict-less, so the cross-check is
	// only exact on uninterrupted runs.)
	if !failedOver {
		var assigned uint64
		for _, cnt := range res.Assigned {
			assigned += uint64(cnt)
		}
		if assigned != admitted {
			return fmt.Errorf("verdicts admitted %d memberships but drained result assigns %d", admitted, assigned)
		}
	}

	if *verify {
		oracle := inst
		if in.Lost() > 0 {
			// Journal-off failover: the dead node's acked elements (its
			// share of everything before the kill) are gone. Decisions are
			// pure per element, so the oracle over the surviving
			// subsequence is exact ground truth — and the filter must
			// account for exactly Lost() elements.
			oracle = &osp.Instance{Weights: inst.Weights, Sizes: inst.Sizes}
			lost := uint64(0)
			for i, el := range inst.Elements {
				if i < killOff && in.Owner(el) == *kill {
					lost++
					continue
				}
				oracle.Elements = append(oracle.Elements, el)
			}
			if lost != in.Lost() {
				return fmt.Errorf("Lost() reports %d elements but the dead node's acked share is %d", in.Lost(), lost)
			}
		}
		alg, err := osp.NewPolicyAlgorithm(*policy, uint64(*seed))
		if err != nil {
			return err
		}
		serial, err := osp.Run(oracle, alg, nil)
		if err != nil {
			return err
		}
		if !res.Equal(serial) {
			return fmt.Errorf("policy %s: merged drain differs from its serial oracle (cluster %.3f, serial %.3f, seed %d)",
				policyName(*policy), res.Benefit, serial.Benefit, *seed)
		}
		scope := "serial"
		if in.Lost() > 0 {
			scope = fmt.Sprintf("surviving-subsequence (%d lost) serial", in.Lost())
		}
		fmt.Fprintf(w, "verify:   merged drain bit-for-bit identical to %s %s oracle (seed %d)\n",
			scope, policyName(*policy), *seed)
	}

	if *printMet {
		fmt.Fprintln(w, "--- metrics ---")
		co.WriteMetrics(w)
	}
	return nil
}

// lockedWriter serializes output: the health monitor's event hook
// writes from the monitor goroutine, concurrent with the main loop.
type lockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (lw *lockedWriter) Write(p []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.w.Write(p)
}

// policyName resolves the empty policy flag to the default's name.
func policyName(p string) string {
	if p == "" {
		return osp.DefaultPolicy
	}
	return p
}

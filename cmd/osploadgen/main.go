// Command osploadgen is the load generator for the networked admission
// service (ospserve -listen): it sustains a target element rate against
// a live server through osp/client, then drains and cross-checks the
// result bit-for-bit against a serial run of the registered admission
// policy on the same workload under the same seed — the remote producers
// of the paper's bottleneck-router story, with the admission guarantee
// verified end to end through the network.
//
// Usage:
//
//	osploadgen -addr http://localhost:8080 -n 200000 -rate 100000
//	osploadgen -n 500000                 # no -addr: embeds a server in-process
//	osploadgen -n 200000 -rate 0        # full speed, report the sustained rate
//	osploadgen -policy first-fit -n 100000  # register a non-default policy
//	osploadgen -codec json -n 200000    # one JSON request per batch instead of the stream
//	osploadgen -pipeline 1 -n 500000    # one batch in flight on the verdict stream
//	osploadgen -addr http://host:8080 -stream-addr host:8081
//	                                    # stream over the raw port, not the HTTP upgrade
//	osploadgen -policy randpr-weighted -zipf 1.2  # skewed Zipf(1.2) set weights,
//	                                    # where the weighted variant actually diverges
//	osploadgen -nodes http://a:8080,http://b:8080 -stream-nodes a:8081,b:8081
//	                                    # cluster mode: fan the stream across a fleet
//	                                    # (an empty -stream-nodes entry upgrades instead)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/osp"
	"repro/osp/client"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "osploadgen:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("osploadgen", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", "", "admission server base URL; empty embeds a server in-process")
		m        = fs.Int("m", 200, "uniform workload: number of sets")
		n        = fs.Int("n", 200000, "uniform workload: number of elements")
		load     = fs.Int("load", 8, "uniform workload: element load σ(u)")
		capacity = fs.Int("cap", 2, "uniform workload: element capacity b(u)")
		seed     = fs.Int64("seed", 1, "workload seed and shared priority seed")
		rate     = fs.Float64("rate", 0, "target arrival rate in elements/sec (0 = full speed)")
		batch    = fs.Int("batch", 1000, "elements per ingest request")
		shards   = fs.Int("shards", 0, "server-side engine shards (0 = server default)")
		policy   = fs.String("policy", "", "admission policy: "+strings.Join(osp.PolicyNames(), ", ")+` ("" = server default randpr)`)
		codec    = fs.String("codec", "binary", "ingest codec: binary (pipelined frames over one verdict stream) or json (one HTTP request per batch)")
		pipeline = fs.Int("pipeline", 8, "binary codec: batches kept in flight on the stream (capped by the server's window)")
		strmAddr = fs.String("stream-addr", "", "host:port of the server's raw stream listener (ospserve -stream-listen); empty streams through an HTTP upgrade of -addr")
		nodesCSV = fs.String("nodes", "", "cluster mode: comma-separated node base URLs, in slot order; ingest routes through a cluster coordinator instead of one server")
		strmCSV  = fs.String("stream-nodes", "", "cluster mode: comma-separated raw stream listener host:ports, parallel to -nodes (\"\" entries stream through the node's HTTP upgrade)")
		zipf     = fs.Float64("zipf", 0, "Zipf exponent s for skewed set weights w(S_i) ∝ 1/(i+1)^s (0 = unit weights)")
		label    = fs.String("label", "loadgen", "metrics label for the registered instance")
		verify   = fs.Bool("verify", true, "cross-check the drained result against the policy's serial oracle")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *batch < 1 {
		return fmt.Errorf("batch must be >= 1, got %d", *batch)
	}
	var wireCodec client.Codec
	switch *codec {
	case "binary":
		wireCodec = client.CodecBinary
	case "json":
		wireCodec = client.CodecJSON
	default:
		return fmt.Errorf("unknown codec %q (binary, json)", *codec)
	}
	if *pipeline < 1 {
		return fmt.Errorf("pipeline depth must be >= 1, got %d", *pipeline)
	}
	var weightFn func(i int) float64
	if *zipf > 0 {
		// The skewed-weight scenario: without it, randpr-weighted decides
		// identically to randpr (unit weights scale priorities by a
		// constant, preserving order), so weighted-variant comparisons
		// need -zipf to be distinguishing.
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

	if *nodesCSV != "" {
		if *addr != "" {
			return errors.New("-nodes (cluster mode) and -addr (single server) are mutually exclusive")
		}
		return runCluster(w, inst, clusterRun{
			nodes: *nodesCSV, streamNodes: *strmCSV,
			seed: *seed, rate: *rate, batch: *batch, shards: *shards,
			policy: *policy, label: *label, verify: *verify,
		})
	}

	base := *addr
	embedded := ""
	if base == "" {
		stopEmbedded, bound, err := startEmbedded()
		if err != nil {
			return err
		}
		defer stopEmbedded()
		base = "http://" + bound
		embedded = " (embedded)"
	}

	ctx := context.Background()
	opts := []client.Option{client.WithCodec(wireCodec)}
	via := "HTTP upgrade"
	if *strmAddr != "" {
		opts = append(opts, client.WithStreamAddr(*strmAddr))
		via = *strmAddr
	}
	c, err := client.New(base, opts...)
	if err != nil {
		return err
	}
	if err := c.Health(ctx); err != nil {
		return fmt.Errorf("server not healthy: %w", err)
	}
	h, err := c.Register(ctx, client.Spec{
		Info:   osp.InfoOf(inst),
		Seed:   uint64(*seed),
		Engine: osp.EngineConfig{Shards: *shards, Policy: *policy},
		Label:  *label,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "target:   %s%s, instance %s, %d shards, policy %s, rate target %s\n",
		base, embedded, h.ID(), h.Shards(), h.Policy(), rateString(*rate))

	var admitted, dropped uint64
	start := time.Now()
	batches := 0
	lat := make([]time.Duration, 0, (len(inst.Elements)+*batch-1)/(*batch))
	pace := func(off int) {
		if *rate > 0 {
			target := start.Add(time.Duration(float64(off) / *rate * float64(time.Second)))
			if d := time.Until(target); d > 0 {
				time.Sleep(d)
			}
		}
	}

	ingestJSON := func() error {
		for off := 0; off < len(inst.Elements); off += *batch {
			pace(off)
			end := min(off+*batch, len(inst.Elements))
			sent := time.Now()
			verdicts, err := h.Ingest(ctx, inst.Elements[off:end])
			lat = append(lat, time.Since(sent))
			if err != nil {
				return fmt.Errorf("ingest batch at %d (policy %s): %w", off, h.Policy(), err)
			}
			for _, v := range verdicts {
				admitted += uint64(len(v.Admitted))
				dropped += uint64(len(v.Dropped))
			}
			batches++
		}
		return nil
	}

	// ingestStream runs the pipeline dance: keep up to -pipeline batches
	// in flight on one connection, collect the oldest verdict frame when
	// the window is full, then drain the tail after CloseSend. Latency is
	// send-to-verdict per batch, so under deep pipelining it includes the
	// time a batch spends queued behind its predecessors.
	ingestStream := func() error {
		st, err := h.OpenStream(ctx)
		if err != nil {
			return err
		}
		defer st.Close()
		depth := min(*pipeline, st.Window())
		type inFlight struct {
			off, end int
			sent     time.Time
		}
		queue := make([]inFlight, 0, depth)
		collect := func() error {
			fl := queue[0]
			queue = queue[1:]
			els := inst.Elements[fl.off:fl.end]
			err := st.Recv(func(i int, adm []osp.SetID) {
				admitted += uint64(len(adm))
				dropped += uint64(len(els[i].Members) - len(adm))
			})
			lat = append(lat, time.Since(fl.sent))
			if err != nil {
				return fmt.Errorf("stream verdicts for batch at %d (policy %s): %w", fl.off, h.Policy(), err)
			}
			batches++
			return nil
		}
		for off := 0; off < len(inst.Elements); off += *batch {
			pace(off)
			if len(queue) == depth {
				if err := collect(); err != nil {
					return err
				}
			}
			end := min(off+*batch, len(inst.Elements))
			if err := st.Send(inst.Elements[off:end]); err != nil {
				return fmt.Errorf("stream send at %d: %w", off, err)
			}
			queue = append(queue, inFlight{off, end, time.Now()})
		}
		if err := st.CloseSend(); err != nil {
			return err
		}
		for len(queue) > 0 {
			if err := collect(); err != nil {
				return err
			}
		}
		if err := st.Recv(func(int, []osp.SetID) {}); err != io.EOF {
			return fmt.Errorf("stream fin: %v", err)
		}
		return nil
	}

	ingest, arm := ingestStream, fmt.Sprintf("codec %s, pipeline %d via %s", h.Codec(), *pipeline, via)
	if wireCodec == client.CodecJSON {
		ingest, arm = ingestJSON, "codec "+h.Codec()
	}
	if err := ingest(); err != nil {
		// Drain the instance anyway so the server side stops cleanly,
		// and surface both errors — as engine.Replay does for a
		// mid-stream Submit failure.
		_, derr := h.Drain(ctx)
		return errors.Join(err, derr)
	}
	elapsed := time.Since(start)

	res, err := h.Drain(ctx)
	if err != nil {
		return err
	}
	sustained := float64(len(inst.Elements)) / elapsed.Seconds()
	fmt.Fprintf(w, "loadgen:  %d elements in %v (%.0f elements/sec over %d batches, %s)\n",
		len(inst.Elements), elapsed.Round(time.Microsecond), sustained, batches, arm)
	p50, p95, p99 := latencyPercentiles(lat)
	fmt.Fprintf(w, "latency:  per-batch client-observed p50 %v, p95 %v, p99 %v\n",
		p50.Round(time.Microsecond), p95.Round(time.Microsecond), p99.Round(time.Microsecond))
	fmt.Fprintf(w, "verdicts: %d admitted, %d dropped memberships\n", admitted, dropped)
	fmt.Fprintf(w, "goodput:  %d sets completed, weight %.1f of %.1f offered\n",
		len(res.Completed), res.Benefit, inst.TotalWeight())

	// The verdict stream and the drained result must agree in aggregate:
	// every admitted membership is an assignment in the final result.
	var assigned uint64
	for _, cnt := range res.Assigned {
		assigned += uint64(cnt)
	}
	if assigned != admitted {
		return fmt.Errorf("verdicts admitted %d memberships but drained result assigns %d", admitted, assigned)
	}

	if *verify {
		alg, err := osp.NewPolicyAlgorithm(h.Policy(), uint64(*seed))
		if err != nil {
			return err
		}
		serial, err := osp.Run(inst, alg, nil)
		if err != nil {
			return err
		}
		if !res.Equal(serial) {
			return fmt.Errorf("policy %s: drained result differs from its serial oracle (server %.3f, serial %.3f, seed %d)",
				h.Policy(), res.Benefit, serial.Benefit, *seed)
		}
		fmt.Fprintf(w, "verify:   drained result bit-for-bit identical to serial %s oracle (seed %d)\n", h.Policy(), *seed)
	}
	return nil
}

// clusterRun carries the -nodes arm's parameters.
type clusterRun struct {
	nodes, streamNodes string
	seed               int64
	rate               float64
	batch, shards      int
	policy, label      string
	verify             bool
}

// runCluster is the -nodes arm: the same load-and-verify loop, routed
// through a cluster coordinator that fans the element stream across the
// fleet by element hash, forwards each share over the node's verdict
// stream, and merges the per-node drains. The merged result is
// still checked bit-for-bit against the serial oracle — placement
// cannot change a verdict.
func runCluster(w io.Writer, inst *osp.Instance, p clusterRun) error {
	bases := strings.Split(p.nodes, ",")
	streams := make([]string, len(bases))
	if p.streamNodes != "" {
		got := strings.Split(p.streamNodes, ",")
		if len(got) != len(bases) {
			return fmt.Errorf("-stream-nodes lists %d addrs for %d nodes", len(got), len(bases))
		}
		streams = got
	}
	fleet := make([]cluster.Node, len(bases))
	for i, b := range bases {
		fleet[i] = cluster.Node{BaseURL: strings.TrimSpace(b), StreamAddr: strings.TrimSpace(streams[i])}
	}
	co, err := cluster.New(cluster.Config{Nodes: fleet})
	if err != nil {
		return err
	}
	defer co.Close() //nolint:errcheck
	ctx := context.Background()
	in, err := co.Register(ctx, cluster.Spec{
		Info: osp.InfoOf(inst), Seed: uint64(p.seed), FanOut: true,
		Engine: osp.EngineConfig{Shards: p.shards, Policy: p.policy},
		Label:  p.label,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "target:   cluster of %d nodes, instance %s on slots %v, rate target %s\n",
		len(fleet), in.ID(), in.Slots(), rateString(p.rate))

	var admitted, dropped uint64
	start := time.Now()
	batches := 0
	lat := make([]time.Duration, 0, (len(inst.Elements)+p.batch-1)/p.batch)
	for off := 0; off < len(inst.Elements); off += p.batch {
		if p.rate > 0 {
			target := start.Add(time.Duration(float64(off) / p.rate * float64(time.Second)))
			if d := time.Until(target); d > 0 {
				time.Sleep(d)
			}
		}
		els := inst.Elements[off:min(off+p.batch, len(inst.Elements))]
		sent := time.Now()
		err := in.Ingest(ctx, els, func(i int, adm []osp.SetID) {
			admitted += uint64(len(adm))
			dropped += uint64(len(els[i].Members) - len(adm))
		})
		lat = append(lat, time.Since(sent))
		if err != nil {
			return fmt.Errorf("cluster ingest batch at %d: %w", off, err)
		}
		batches++
	}
	elapsed := time.Since(start)

	res, err := in.Drain(ctx)
	if err != nil {
		return err
	}
	sustained := float64(len(inst.Elements)) / elapsed.Seconds()
	fmt.Fprintf(w, "loadgen:  %d elements in %v (%.0f elements/sec over %d batches, cluster fan-out)\n",
		len(inst.Elements), elapsed.Round(time.Microsecond), sustained, batches)
	p50, p95, p99 := latencyPercentiles(lat)
	fmt.Fprintf(w, "latency:  per-batch client-observed p50 %v, p95 %v, p99 %v\n",
		p50.Round(time.Microsecond), p95.Round(time.Microsecond), p99.Round(time.Microsecond))
	fmt.Fprintf(w, "verdicts: %d admitted, %d dropped memberships\n", admitted, dropped)
	fmt.Fprintf(w, "goodput:  %d sets completed, weight %.1f of %.1f offered\n",
		len(res.Completed), res.Benefit, inst.TotalWeight())

	var assigned uint64
	for _, cnt := range res.Assigned {
		assigned += uint64(cnt)
	}
	if assigned != admitted {
		return fmt.Errorf("verdicts admitted %d memberships but drained result assigns %d", admitted, assigned)
	}
	if p.verify {
		alg, err := osp.NewPolicyAlgorithm(p.policy, uint64(p.seed))
		if err != nil {
			return err
		}
		serial, err := osp.Run(inst, alg, nil)
		if err != nil {
			return err
		}
		if !res.Equal(serial) {
			return fmt.Errorf("cluster drain differs from its serial oracle (cluster %.3f, serial %.3f, seed %d)",
				res.Benefit, serial.Benefit, p.seed)
		}
		pol := p.policy
		if pol == "" {
			pol = osp.DefaultPolicy
		}
		fmt.Fprintf(w, "verify:   merged cluster drain bit-for-bit identical to serial %s oracle (seed %d)\n", pol, p.seed)
	}
	return nil
}

// startEmbedded runs a full admission service on a loopback listener in
// this process — the zero-setup path for benchmarking and CI smoke runs.
// The verdict stream reaches it through the HTTP upgrade.
func startEmbedded() (stop func(), addr string, err error) {
	srv := osp.NewServer(osp.ServerConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: srv}
	go hs.Serve(ln) //nolint:errcheck // closed via stop
	stop = func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		hs.Shutdown(ctx)  //nolint:errcheck
		srv.Shutdown(ctx) //nolint:errcheck // drains upgraded streams too
	}
	return stop, ln.Addr().String(), nil
}

// latencyPercentiles sorts the recorded per-batch round-trip times and
// returns the p50/p95/p99 order statistics (nearest-rank on a sorted
// copy; zero durations for an empty sample).
func latencyPercentiles(lat []time.Duration) (p50, p95, p99 time.Duration) {
	if len(lat) == 0 {
		return 0, 0, 0
	}
	sorted := append([]time.Duration(nil), lat...)
	slices.Sort(sorted)
	rank := func(q float64) time.Duration {
		i := int(math.Ceil(q*float64(len(sorted)))) - 1
		if i < 0 {
			i = 0
		}
		return sorted[i]
	}
	return rank(0.50), rank(0.95), rank(0.99)
}

// rateString formats the pacing target.
func rateString(rate float64) string {
	if rate <= 0 {
		return "unlimited"
	}
	return fmt.Sprintf("%.0f elements/s", rate)
}

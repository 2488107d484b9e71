// Command ospserve is the admission daemon of the paper's
// bottleneck-router story: elements (time slots with packet bursts)
// stream in, each is admitted or dropped immediately by
// coordination-free randPr priorities, and frames that keep every packet
// pay out their weight.
//
// It has two modes. Replay mode (the default) pushes a generated
// workload or a decoded trace through the sharded concurrent streaming
// engine at a configurable arrival rate and reports throughput and
// goodput. Service mode (-listen) mounts the networked admission
// service instead: an HTTP API for remote producers (register a set
// system, stream element batches for immediate verdicts, drain the
// final result) with Prometheus metrics at /metrics and graceful drain
// of every live engine on SIGINT/SIGTERM. Binary ingest is the stream
// transport — one long-lived connection per producer carrying
// pipelined binary batch frames — reached through an HTTP/1.1 Upgrade
// on the -listen port (GET /v1/stream); -stream-listen additionally
// serves it on a raw-TCP port of its own. See docs/OPERATIONS.md for
// the endpoint and metrics reference, and cmd/osploadgen for a traffic
// source.
//
// Usage:
//
//	ospserve -workload video -streams 64 -frames 32 -shards 4
//	ospserve -workload multihop -hops 8 -packets 500 -rate 50000
//	ospserve -workload uniform -policy greedy-remaining -verify
//	ospserve -trace trace.osp -verify
//	ospserve -listen :8080
//	ospserve -listen :8080 -stream-listen :8081
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/setsystem"
	"repro/internal/workload"
	"repro/osp"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ospserve:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("ospserve", flag.ContinueOnError)
	var (
		listen  = fs.String("listen", "", "service mode: serve the HTTP admission API on this address (e.g. :8080)")
		strmLn  = fs.String("stream-listen", "", "service mode: also serve the raw-TCP stream transport on this address (e.g. :8081)")
		strmWin = fs.Int("stream-window", 0, "stream transport: pipelined batches allowed in flight per connection (0 = default 32)")
		strmTim = fs.Bool("stream-timings", false, "stream transport: record per-batch decode latency into the osp_stream_decode histogram (two time.Now stamps per frame)")
		nodeLbl = fs.String("node", "", "service mode: node name exported as the osp_node_info metric (cluster deployments)")
		snapDir = fs.String("snapshot-dir", "", "service mode: restore instance snapshots from this directory on boot and write them on drain/SIGTERM; POST /v1/instances/{id}/snapshot persists there on demand")
		maxInst = fs.Int("max-instances", 0, "service mode: engine pool limit (0 = default 1024)")
		maxBat  = fs.Int("max-batch", 0, "service mode: per-request ingest batch cap (0 = default 65536)")
		maxBody = fs.Int64("max-body", 0, "service mode: request body byte cap (0 = default 256 MiB)")
		kind    = fs.String("workload", "video", `"video", "bursty", "multihop" or "uniform"`)
		trace   = fs.String("trace", "", "replay a trace file instead of generating a workload")
		streams = fs.Int("streams", 64, "video/bursty: concurrent streams")
		frames  = fs.Int("frames", 32, "video/bursty: frames per stream")
		linkCap = fs.Int("cap", 1, "video/bursty: link capacity (packets/slot)")
		jitter  = fs.Int("jitter", 3, "video: max start jitter (slots)")
		hops    = fs.Int("hops", 8, "multihop: switches on the line")
		packets = fs.Int("packets", 200, "multihop: packets injected")
		horizon = fs.Int("horizon", 20, "multihop: injection window (slots)")
		m       = fs.Int("m", 200, "uniform: number of sets")
		n       = fs.Int("n", 2000, "uniform: number of elements")
		load    = fs.Int("load", 8, "uniform: element load σ(u)")
		shards  = fs.Int("shards", 0, "engine shard workers (0 = GOMAXPROCS)")
		policy  = fs.String("policy", "", "admission policy: "+strings.Join(core.PolicyNames(), ", ")+` ("" = randpr)`)
		batch   = fs.Int("batch", 0, "engine ingestion batch size (0 = default)")
		queue   = fs.Int("queue", 0, "engine per-shard queue depth in batches (0 = default)")
		rate    = fs.Float64("rate", 0, "target arrival rate in elements/sec (0 = full speed)")
		report  = fs.Duration("report", 0, "live metrics interval (0 = final report only)")
		seed    = fs.Int64("seed", 1, "random seed (workload and shared priority seed)")
		verify  = fs.Bool("verify", false, "also run serial hashRandPr and check bit-for-bit equality")
		decLog  = fs.String("decision-log", "", `sampled decision log sink: a JSON-lines file path, or "-" for stderr ("" = disabled)`)
		decEach = fs.Int("decision-sample", 1024, "decision log: record every Nth decision per shard (1 = all)")
		pprofOn = fs.Bool("pprof", false, "service mode: mount net/http/pprof at /debug/pprof/")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	dlog, closeLog, err := openDecisionLog(*decLog, *decEach)
	if err != nil {
		return err
	}
	defer closeLog()

	if *listen != "" {
		stop := make(chan os.Signal, 1)
		signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
		defer signal.Stop(stop)
		return runService(*listen, *strmLn, osp.ServerConfig{
			MaxInstances: *maxInst, MaxBatch: *maxBat, MaxBodyBytes: *maxBody,
			StreamWindow: *strmWin, StreamTimings: *strmTim,
			Decisions: dlog, EnablePprof: *pprofOn,
			NodeLabel: *nodeLbl, SnapshotDir: *snapDir,
		}, w, stop, nil)
	}

	inst, desc, err := buildWorkload(*trace, *kind, workloadParams{
		streams: *streams, frames: *frames, linkCap: *linkCap, jitter: *jitter,
		hops: *hops, packets: *packets, horizon: *horizon,
		m: *m, n: *n, load: *load,
	}, *seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "workload: %s\n", desc)
	fmt.Fprintf(w, "instance: %v\n", inst)

	cfg := engine.Config{Shards: *shards, BatchSize: *batch, QueueDepth: *queue, Policy: *policy}
	if dlog != nil {
		pol, err := core.LookupPolicy(*policy)
		if err != nil {
			return err
		}
		cfg.Telemetry = &obs.EngineTelemetry{
			Decisions: dlog.Logger("replay", pol.Name(), cfg.Resolved().Shards),
		}
	}
	eng, err := engine.New(core.InfoOf(inst), uint64(*seed), cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "engine: %d shards, policy %s, rate target %s\n\n",
		eng.NumShards(), eng.PolicyName(), rateString(*rate))

	stopReport := startReporter(w, eng, *report)
	start := time.Now()
	for i, el := range inst.Elements {
		if *rate > 0 {
			target := start.Add(time.Duration(float64(i) / *rate * float64(time.Second)))
			if d := time.Until(target); d > 0 {
				time.Sleep(d)
			}
		}
		if err := eng.Submit(el); err != nil {
			// Drain anyway so the shard workers stop; surface both errors,
			// as engine.Replay does.
			_, derr := eng.Drain()
			stopReport()
			return errors.Join(err, derr)
		}
	}
	res, err := eng.Drain()
	stopReport()
	if err != nil {
		return err
	}

	printReport(w, inst, res, eng.Metrics().Snapshot())

	if *verify {
		pol, err := core.LookupPolicy(*policy)
		if err != nil {
			return err
		}
		serial, err := core.Run(inst, &core.PolicyAlgorithm{Policy: pol, Seed: uint64(*seed)}, nil)
		if err != nil {
			return err
		}
		if !res.Equal(serial) {
			return fmt.Errorf("policy %s: engine result differs from its serial oracle (engine %.3f, serial %.3f, seed %d)",
				pol.Name(), res.Benefit, serial.Benefit, *seed)
		}
		fmt.Fprintf(w, "verify: engine output identical to serial %s oracle (seed %d)\n", pol.Name(), *seed)
	}
	return nil
}

// openDecisionLog builds the sampled decision log selected by the
// -decision-log flag. "" disables logging (nil log, no-op close); "-"
// or "stderr" streams JSON lines to stderr; anything else truncates and
// writes that file. The returned close function flushes the log's rings
// and the sink's buffer — callers must run it after the last engine has
// drained so the tail of the stream is captured.
func openDecisionLog(path string, every int) (*osp.DecisionLog, func(), error) {
	if path == "" {
		return nil, func() {}, nil
	}
	var sink *osp.JSONLSink
	switch path {
	case "-", "stderr":
		// Hide os.Stderr's Close from the sink: flushing on exit is
		// wanted, closing the process's stderr is not.
		sink = osp.NewJSONLSink(struct{ io.Writer }{os.Stderr})
	default:
		f, err := os.Create(path)
		if err != nil {
			return nil, nil, fmt.Errorf("decision-log: %w", err)
		}
		sink = osp.NewJSONLSink(f)
	}
	dlog := osp.NewDecisionLog(osp.DecisionLogConfig{SampleEvery: every, Sink: sink})
	return dlog, func() {
		dlog.Close()
		sink.Close()
	}, nil
}

// runService mounts the networked admission service and blocks until a
// stop signal arrives, then shuts down gracefully: both listeners stop
// accepting, open streams are drained, and every live engine is drained
// so in-flight elements are decided, not lost. ready (may be nil)
// receives the bound HTTP address, then — when streamListen is set —
// the bound stream address; tests use it to connect to ":0" listeners.
func runService(listen, streamListen string, cfg osp.ServerConfig, w io.Writer, stop <-chan os.Signal, ready chan<- string) error {
	srv := osp.NewServer(cfg)
	if cfg.SnapshotDir != "" {
		// Restore before the listeners open: a resuming client must never
		// reach a server that has not yet reloaded its instances.
		n, err := srv.RestoreDir(cfg.SnapshotDir)
		if err != nil {
			return fmt.Errorf("restore snapshots from %s: %w", cfg.SnapshotDir, err)
		}
		if n > 0 {
			fmt.Fprintf(w, "ospserve: restored %d instance(s) from %s\n", n, cfg.SnapshotDir)
		}
	}
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "ospserve: admission service listening on http://%s\n", ln.Addr())
	fmt.Fprintf(w, "ospserve: POST /v1/instances to register, GET /metrics for Prometheus, SIGINT/SIGTERM to drain\n")
	if ready != nil {
		ready <- ln.Addr().String()
	}

	hs := &http.Server{Handler: srv}
	errc := make(chan error, 2)
	go func() { errc <- hs.Serve(ln) }()
	if streamListen != "" {
		sln, err := net.Listen("tcp", streamListen)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "ospserve: stream transport listening on %s\n", sln.Addr())
		if ready != nil {
			ready <- sln.Addr().String()
		}
		// ServeStream returns nil once Shutdown closes the listener, so
		// only a real accept failure lands in errc.
		go func() {
			if err := srv.ServeStream(sln); err != nil {
				errc <- fmt.Errorf("stream listener: %w", err)
			}
		}()
	}

	select {
	case err := <-errc:
		return err
	case <-stop:
	}

	fmt.Fprintf(w, "ospserve: shutting down, draining %d instances\n", srv.Pool().Len())
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	httpErr := hs.Shutdown(ctx)
	drainErr := srv.Shutdown(ctx)
	var snapErr error
	if cfg.SnapshotDir != "" {
		// The engines are quiesced now, so every export is instant; the
		// atomic writes make the directory safe against a crash mid-write.
		if err := srv.WriteSnapshots(ctx, cfg.SnapshotDir); err != nil {
			snapErr = fmt.Errorf("write snapshots to %s: %w", cfg.SnapshotDir, err)
		} else {
			fmt.Fprintf(w, "ospserve: wrote %d instance snapshot(s) to %s\n", srv.Pool().Len(), cfg.SnapshotDir)
		}
	}
	if err := errors.Join(httpErr, drainErr, snapErr); err != nil {
		return err
	}
	fmt.Fprintf(w, "ospserve: all engines drained, bye\n")
	return nil
}

// workloadParams bundles the generator knobs.
type workloadParams struct {
	streams, frames, linkCap, jitter int
	hops, packets, horizon           int
	m, n, load                       int
}

// buildWorkload produces the instance to serve: decoded from a trace file,
// or generated by the named scenario.
func buildWorkload(trace, kind string, p workloadParams, seed int64) (*setsystem.Instance, string, error) {
	if trace != "" {
		f, err := os.Open(trace)
		if err != nil {
			return nil, "", err
		}
		defer f.Close()
		inst, err := setsystem.Decode(f)
		if err != nil {
			return nil, "", err
		}
		return inst, fmt.Sprintf("trace %s", trace), nil
	}
	rng := rand.New(rand.NewSource(seed))
	switch kind {
	case "video":
		vi, err := workload.Video(workload.VideoConfig{
			Streams: p.streams, FramesPerStream: p.frames,
			LinkCapacity: p.linkCap, Jitter: p.jitter,
		}, rng)
		if err != nil {
			return nil, "", err
		}
		return vi.Inst, fmt.Sprintf("video, %d streams × %d frames, link capacity %d",
			p.streams, p.frames, p.linkCap), nil
	case "bursty":
		vi, err := workload.Bursty(workload.BurstyConfig{
			Streams: p.streams, Frames: p.frames, LinkCapacity: p.linkCap,
		}, rng)
		if err != nil {
			return nil, "", err
		}
		return vi.Inst, fmt.Sprintf("bursty video, %d on/off streams × %d frames", p.streams, p.frames), nil
	case "multihop":
		mi, err := workload.Multihop(workload.MultihopConfig{
			Hops: p.hops, Packets: p.packets, Horizon: p.horizon,
		}, rng)
		if err != nil {
			return nil, "", err
		}
		return mi.Inst, fmt.Sprintf("multihop, %d packets over %d switches", p.packets, p.hops), nil
	case "uniform":
		inst, err := workload.Uniform(workload.UniformConfig{M: p.m, N: p.n, Load: p.load}, rng)
		if err != nil {
			return nil, "", err
		}
		return inst, fmt.Sprintf("uniform, m=%d n=%d load=%d", p.m, p.n, p.load), nil
	default:
		return nil, "", fmt.Errorf("unknown workload %q", kind)
	}
}

// startReporter prints live metric snapshots every interval until the
// returned stop function is called. A zero interval disables reporting.
func startReporter(w io.Writer, eng *engine.Engine, interval time.Duration) (stop func()) {
	if interval <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				fmt.Fprintf(w, "live: %v\n", eng.Metrics().Snapshot())
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}

// printReport writes the final throughput/goodput summary.
func printReport(w io.Writer, inst *setsystem.Instance, res *core.Result, s engine.Snapshot) {
	offered := inst.TotalWeight()
	fmt.Fprintf(w, "throughput: %d elements in %v (%.0f elements/s, %d batches)\n",
		s.Processed, s.Elapsed.Round(time.Microsecond), s.ElementsPerSec, s.Batches)
	fmt.Fprintf(w, "admission:  %d assigned, %d dropped (%.1f%% of %d offered memberships)\n",
		s.Assigned, s.Dropped, pct(s.Dropped, s.Assigned+s.Dropped), s.Assigned+s.Dropped)
	fmt.Fprintf(w, "goodput:    %d sets completed, weight %.1f of %.1f offered (%.1f%%)\n",
		len(res.Completed), res.Benefit, offered, 100*safeDiv(res.Benefit, offered))
}

func pct(part, whole uint64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func rateString(rate float64) string {
	if rate <= 0 {
		return "unlimited"
	}
	return fmt.Sprintf("%.0f elements/s", rate)
}

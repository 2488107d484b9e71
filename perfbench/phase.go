package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"time"

	"repro/osp"
)

// phaseResult accumulates one phase: set-ups, then untimed warm-up
// rounds, then timed rounds until the budget is spent.
type phaseResult struct {
	setups    []float64 // s, spawn to first instance ready
	elements  int       // timed elements
	streamed  time.Duration
	latencies []float64 // ms per timed batch, send to verdicts
	eps       []float64 // el/s per timed round, first send to last verdict
	p50s      []float64 // ms per timed round, median batch latency
	results   []float64 // ms per timed round, last verdict to drained Result
	rss       []float64 // MB per timed round, sampled peak over nodes
	offered   float64   // timed rounds' total weight
	completed float64   // timed rounds' drained benefit
	hwmMB     float64   // lifetime peak (VmHWM), max over nodes
	attempted int       // batches sent, warm-up included
	batches   int       // timed batches
	rounds    int       // timed rounds
	lifeEps   []float64 // el/s per fleet, median over its timed rounds
	shards    int       // server-side engine shards

	// Traced phases only: counters across the timed rounds.
	clientCPU, serverCPU time.Duration
	serve, coord         promDelta
}

// runPhase sets the fleet up reps times (keeping the last), warms it up
// and runs timed rounds for budget, spread over lives fleets. rec, when
// non-nil, traces the phase on a single fleet:
// the servers run with -stream-timings, the calls get spans, and the
// counters are read around the timed rounds.
func runPhase(ctx context.Context, w *workload, ins []*input, bin string, budget time.Duration, reps int, rec *recorder) (*phaseResult, error) {
	r := &phaseResult{}
	var f *fleet
	var h handle
	for rep := 0; rep < reps; rep++ {
		if f != nil {
			f.stop()
		}
		// Collecting first keeps the benchmark's own garbage collector
		// out of the timed set-up; rounds end the same way.
		runtime.GC()
		t0 := time.Now()
		var err error
		if f, err = startFleet(bin, w.nodes, rec != nil); err != nil {
			return nil, err
		}
		if h, err = f.register(ctx, ins[0], nil, -1); err != nil {
			f.stop()
			return nil, fmt.Errorf("register: %w", err)
		}
		r.setups = append(r.setups, time.Since(t0).Seconds())
	}
	defer func() {
		if f != nil {
			f.stop()
		}
	}()
	// The coordinator does not report its nodes' shard count; they run
	// the server default of one per CPU.
	r.shards = h.shards()
	if r.shards == 0 {
		r.shards = runtime.NumCPU()
	}

	// An untraced phase spreads its timed rounds over several fleets in
	// turn: a server process can settle into a slower or faster steady
	// state for its whole life, and sampling several lives keeps one of
	// them from setting the run's figure. A traced phase keeps one fleet,
	// so its counters are read across one process each.
	fleets := lives
	if rec != nil {
		fleets = 1
	}
	k := 0
	warm := func() error {
		start := time.Now()
		for first := true; first || time.Since(start) < warmup; first = false {
			if err := r.round(ctx, w, f, h, ins[k%len(ins)], false, nil); err != nil {
				return err
			}
			h = nil
			k++
		}
		return nil
	}
	if err := warm(); err != nil {
		return nil, err
	}

	var before, coordBefore scrape
	var cpu0, scpu0 time.Duration
	if rec != nil {
		var err error
		if before, coordBefore, err = f.scrapes(ctx); err != nil {
			return nil, err
		}
		if scpu0, err = f.serverCPU(); err != nil {
			return nil, err
		}
		cpu0 = selfCPU()
	}
	var timed time.Duration
	for life := 0; life < fleets; life++ {
		if life > 0 {
			hwm, err := f.peakRSSMB()
			if err != nil {
				return nil, err
			}
			r.hwmMB = max(r.hwmMB, hwm)
			f.stop()
			if f, err = startFleet(bin, w.nodes, false); err != nil {
				return nil, err
			}
			if err := warm(); err != nil {
				return nil, err
			}
		}
		share := budget * time.Duration(life+1) / time.Duration(fleets)
		n0 := len(r.eps)
		for first := true; first || timed < share; first = false {
			t0 := time.Now()
			if err := r.round(ctx, w, f, nil, ins[k%len(ins)], true, rec); err != nil {
				return nil, err
			}
			timed += time.Since(t0)
			k++
		}
		r.lifeEps = append(r.lifeEps, median(r.eps[n0:]))
	}
	if rec != nil {
		r.clientCPU = selfCPU() - cpu0
		scpu1, err := f.serverCPU()
		if err != nil {
			return nil, err
		}
		r.serverCPU = scpu1 - scpu0
		after, coordAfter, err := f.scrapes(ctx)
		if err != nil {
			return nil, err
		}
		r.serve = promDelta{before, after}
		r.coord = promDelta{coordBefore, coordAfter}
	}
	hwm, err := f.peakRSSMB()
	r.hwmMB = max(r.hwmMB, hwm)
	return r, err
}

// round registers in (unless h is already registered), streams it,
// drains it, checks the Result against the serial oracle and the
// verdicts against the Result, and removes the instance. Only timed
// rounds are accounted.
func (r *phaseResult) round(ctx context.Context, w *workload, f *fleet, h handle, in *input, timed bool, rec *recorder) error {
	root := rec.begin("round", -1, -1)
	defer rec.end(root)
	if _, err := f.rss.take(); err != nil {
		return fmt.Errorf("sample server RSS: %w", err)
	}
	if h == nil {
		var err error
		if h, err = f.register(ctx, in, rec, root); err != nil {
			return fmt.Errorf("register: %w", err)
		}
	}
	time.Sleep(w.settle)
	sent := make([]time.Time, len(in.batches))
	lat := make([]float64, len(in.batches))
	var last time.Time
	t := &tap{
		before: func(i int) { sent[i] = time.Now() },
		after: func(i int) {
			last = time.Now()
			lat[i] = ms(last.Sub(sent[i]))
		},
		rec:    rec,
		parent: rec.begin("stream", root, -1),
	}
	admitted, err := h.stream(ctx, in, t)
	rec.end(t.parent)
	r.attempted += len(in.batches)
	if err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	id := rec.begin("drain", root, -1)
	res, err := h.drain(ctx)
	result := time.Since(last)
	rec.end(id)
	if err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := check(res, in, admitted); err != nil {
		return err
	}
	if err := h.remove(ctx); err != nil {
		return fmt.Errorf("remove: %w", err)
	}
	rss, err := f.rss.take()
	if err != nil {
		return fmt.Errorf("sample server RSS: %w", err)
	}
	runtime.GC()
	if timed {
		r.rss = append(r.rss, rss)
		r.latencies = append(r.latencies, lat...)
		r.p50s = append(r.p50s, median(lat))
		r.eps = append(r.eps, float64(len(in.inst.Elements))/last.Sub(sent[0]).Seconds())
		r.elements += len(in.inst.Elements)
		r.streamed += last.Sub(sent[0])
		r.results = append(r.results, ms(result))
		r.offered += in.offered
		r.completed += res.Benefit
		r.batches += len(in.batches)
		r.rounds++
	}
	return nil
}

// check fails the run unless the drained Result is bit-for-bit the
// serial oracle's and the verdicts admitted exactly the memberships the
// Result counts.
func check(res *osp.Result, in *input, admitted int) error {
	if !res.Equal(in.oracle) {
		return fmt.Errorf("drained result differs from the serial oracle (benefit %v, oracle %v, policy seed %d)",
			res.Benefit, in.oracle.Benefit, in.seed)
	}
	total := 0
	for _, c := range res.Assigned {
		total += int(c)
	}
	if total != admitted {
		return fmt.Errorf("verdicts admitted %d memberships, drained result assigns %d", admitted, total)
	}
	return nil
}

// endToEnd derives the end-to-end metrics. Throughput and latency are
// medians over the timed rounds, so a host stall that slows a few
// rounds does not move the run's figure; the pooled values are printed
// alongside. The drain time is a trimmed mean instead: a server garbage
// collection lands in some drains and not others, so drain times fall
// in two clusters, and a median jumps between them from run to run as
// their shares shift. A mean weighs each cluster by its share, and
// trimming a tenth from each end keeps a stall out of it.
func (r *phaseResult) endToEnd() metrics {
	n := func(what string, k int) string { return fmt.Sprintf("n=%d %s", k, what) }
	return metrics{
		"ingest_eps": {median(r.eps), "el/s",
			fmt.Sprintf("n=%d rounds; pooled %.4g el/s, %d elements in %.2f s; per fleet %.3g", r.rounds,
				float64(r.elements)/r.streamed.Seconds(), r.elements, r.streamed.Seconds(), r.lifeEps)},
		"verdict_p50_ms": {median(r.p50s), "ms",
			fmt.Sprintf("n=%d rounds, %d batches; pooled median %.4g ms", r.rounds, len(r.latencies), median(r.latencies))},
		"setup_s": {median(r.setups), "s", n("set-ups", len(r.setups))},
		"result_ms": {trimmedMean(r.results, 0.1), "ms",
			fmt.Sprintf("n=%d drains, 10%%-trimmed mean; median %.4g ms", len(r.results), median(r.results))},
		"server_rss_mb": {median(r.rss), "MB",
			fmt.Sprintf("n=%d rounds, peak sampled every %v, max over nodes; lifetime VmHWM %.1f MB", len(r.rss), rssPeriod, r.hwmMB)},
		"goodput_frac": {r.completed / r.offered, "frac", fmt.Sprintf("completed %.0f of %.0f offered weight", r.completed, r.offered)},
	}
}

// perLayer derives the traced phase's per-layer metrics: those that
// every workload exercises (reported in the result object) and those
// only this workload does (printed).
func (r *phaseResult) perLayer(rec *recorder, ls layerStats, calib, overhead float64) (all, only metrics, err error) {
	els := float64(r.elements)
	us := func(secs float64) float64 { return secs * 1e6 }
	const stage = "osp_stage_duration_seconds"
	batches := r.serve.counter("osp_stream_batches_total", "")
	decode := us(r.serve.histMean(stage, `stage="stream_decode"`))
	queue := us(r.serve.histMean(stage, `stage="queue_wait"`))
	decide := us(r.serve.histMean(stage, `stage="decide"`))
	all = metrics{
		"host.calib_ms":                 {calib, "ms", "dependent loads through 32 MB, median of 3"},
		"trace.overhead_frac":           {overhead, "frac", "traced phase's loss on the headline metric"},
		"client.cpu_ns_per_el":          {float64(r.clientCPU.Nanoseconds()) / els, "ns", "benchmark process, getrusage"},
		"client.verdict_p90_ms":         {quantile(r.latencies, 0.90), "ms", fmt.Sprintf("n=%d batches", len(r.latencies))},
		"client.verdict_p99_ms":         {quantile(r.latencies, 0.99), "ms", fmt.Sprintf("n=%d batches", len(r.latencies))},
		"serve.cpu_ns_per_el":           {float64(r.serverCPU.Nanoseconds()) / els, "ns", "ospserve, /proc stat, summed over nodes"},
		"serve.queue_wait_us":           {queue, "us", "histogram mean"},
		"serve.decide_us":               {decide, "us", "histogram mean"},
		"serve.stream_decode_us":        {decode, "us", "histogram mean"},
		"serve.batches":                 {batches, "count", "stream batch frames"},
		"serve.gc_cycles":               {r.serve.counter("osp_go_gc_cycles_total", ""), "count", ""},
		"serve.gc_pause_ms":             {1e3 * r.serve.counter("osp_go_gc_pause_seconds_total", ""), "ms", ""},
		"engine.ns_per_el":              {ls.engineNsPerEl, "ns", fmt.Sprintf("in-process, %d shards, masks on", r.shards)},
		"engine.new_ms":                 {ls.engineNewMs, "ms", ""},
		"engine.drain_ms":               {ls.engineDrainMs, "ms", ""},
		"engine.allocs_per_el":          {ls.engineAllocsPerEl, "count", "submit loop and drain"},
		"core.decide_ns_per_el":         {ls.coreDecideNsPerEl, "ns", "DecideInPlace incl. scratch copy"},
		"core.setup_ms":                 {ls.coreSetupMs, "ms", "Policy.Setup"},
		"core.serial_ns_per_el":         {ls.coreSerialNsPerEl, "ns", "the oracle's osp.Run"},
		"core.admit_frac":               {ls.coreAdmitFrac, "frac", "admitted memberships / memberships"},
		"wire.encode_ns_per_el":         {ls.wireEncodeNsPerEl, "ns", "AppendElements"},
		"wire.decode_ns_per_el":         {ls.wireDecodeNsPerEl, "ns", "DecodeBatch"},
		"wire.mask_ns_per_el":           {ls.wireMaskNsPerEl, "ns", "AppendVerdictMask"},
		"wire.verdict_decode_ns_per_el": {ls.wireVerdictDecodeNsPerEl, "ns", "DecodeVerdicts+MaskAt+AppendAdmitted"},
		"wire.bytes_per_el":             {ls.wireBytesPerEl, "B", "batch + verdict frame bytes"},
	}

	meanUs := func(name string) float64 {
		var vals []float64
		for _, d := range rec.durations(name) {
			vals = append(vals, float64(d.Nanoseconds())/1e3)
		}
		return mean(vals)
	}
	medMs := func(name string) float64 {
		var vals []float64
		for _, d := range rec.durations(name) {
			vals = append(vals, ms(d))
		}
		return median(vals)
	}
	only = metrics{}
	if len(r.coord.after) == 0 {
		only["client.send_us"] = metric{meanUs("client.send"), "us", "span mean"}
		only["client.recv_us"] = metric{meanUs("client.recv"), "us", "span mean"}
		only["client.register_ms"] = metric{medMs("client.register"), "ms", "span median"}
		only["client.drain_ms"] = metric{medMs("drain"), "ms", "span median, close stream + Drain"}
		if int(batches) != r.batches {
			return nil, nil, fmt.Errorf("server counted %d stream batches, benchmark sent %d", int(batches), r.batches)
		}
		return all, only, nil
	}
	shares := r.coord.counter("osp_cluster_node_batches_total", "")
	if shares != batches {
		return nil, nil, fmt.Errorf("coordinator forwarded %.0f shares, nodes counted %.0f stream batches", shares, batches)
	}
	var per []float64
	b0, b1 := r.coord.before.each("osp_cluster_node_elements_total"), r.coord.after.each("osp_cluster_node_elements_total")
	for labels, v := range b1 {
		per = append(per, v-b0[labels])
	}
	only["cluster.ingest_us"] = metric{meanUs("cluster.ingest"), "us", "span mean"}
	only["cluster.forward_us"] = metric{us(r.coord.histMean("osp_cluster_forward_duration_seconds", "")), "us", "histogram mean"}
	only["cluster.shares_per_batch"] = metric{shares / float64(r.batches), "count", ""}
	only["cluster.node_skew"] = metric{maxOf(per) / mean(per), "ratio", "max/mean elements per node"}
	only["cluster.node_errors"] = metric{r.coord.counter("osp_cluster_node_errors_total", "") +
		r.coord.counter("osp_cluster_resent_elements_total", ""), "count", "errors + resent elements"}
	only["cluster.register_ms"] = metric{medMs("cluster.register"), "ms", "span median"}
	only["cluster.drain_ms"] = metric{medMs("drain"), "ms", "span median"}
	return all, only, nil
}

// printTable prints metrics sorted by name.
func printTable(w io.Writer, title string, m metrics) {
	if len(m) == 0 {
		return
	}
	fmt.Fprintf(w, "%s:\n", title)
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		v := m[k]
		fmt.Fprintf(w, "  %-30s %14.6g %-6s %s\n", k, v.Value, v.Unit, v.note)
	}
}

// printSelfTimes prints each span name's count, total and self time.
func printSelfTimes(w io.Writer, rec *recorder) {
	self := selfTimes(rec.spans)
	count, total := map[string]int{}, map[string]time.Duration{}
	for _, s := range rec.spans {
		count[s.Name]++
		total[s.Name] += s.End - s.Start
	}
	names := make([]string, 0, len(self))
	for k := range self {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "spans (benchmark side of each layer boundary):\n")
	fmt.Fprintf(w, "  %-20s %9s %12s %12s\n", "name", "count", "total_ms", "self_ms")
	for _, k := range names {
		fmt.Fprintf(w, "  %-20s %9d %12.3f %12.3f\n", k, count[k], ms(total[k]), ms(self[k]))
	}
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

// quantile is the linearly interpolated q-quantile; NaN when empty.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func mean(vals []float64) float64 {
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// trimmedMean is the mean of vals without the lowest and the highest
// share f of them.
func trimmedMean(vals []float64, f float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	k := int(f * float64(len(s)))
	return mean(s[k : len(s)-k])
}

func maxOf(vals []float64) float64 {
	m := math.Inf(-1)
	for _, v := range vals {
		m = max(m, v)
	}
	return m
}

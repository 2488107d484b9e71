package serve

import (
	"fmt"
	"io"
	"strconv"

	"repro/internal/engine"
	"repro/internal/obs"
)

// Prometheus text-format exporter (exposition format version 0.0.4) for
// the pool's engines. No client library is used: the engine's lock-free
// counters are already the collected state, so rendering is a pure read
// of every instance's Snapshot. The name/label reference lives in
// docs/OPERATIONS.md.

// metricDef describes one per-instance series derived from an
// engine.Snapshot.
type metricDef struct {
	name  string
	kind  string // "counter" or "gauge"
	help  string
	value func(engine.Snapshot) float64
}

// perInstanceMetrics is the exported series, one value per instance,
// labeled {instance="i-n"} plus {label="..."} when a registration label
// was supplied.
var perInstanceMetrics = []metricDef{
	{"osp_engine_submitted_elements_total", "counter",
		"Elements flushed to shard queues (published once per batch).",
		func(s engine.Snapshot) float64 { return float64(s.Submitted) }},
	{"osp_engine_processed_elements_total", "counter",
		"Elements decided by shard workers.",
		func(s engine.Snapshot) float64 { return float64(s.Processed) }},
	{"osp_engine_batches_total", "counter",
		"Batches handed to shard workers.",
		func(s engine.Snapshot) float64 { return float64(s.Batches) }},
	{"osp_engine_assigned_total", "counter",
		"Element-to-set assignments made (admitted memberships).",
		func(s engine.Snapshot) float64 { return float64(s.Assigned) }},
	{"osp_engine_dropped_total", "counter",
		"Memberships denied (packets dropped in the router reading).",
		func(s engine.Snapshot) float64 { return float64(s.Dropped) }},
	{"osp_engine_completed_sets", "gauge",
		"Sets completed at drain (0 while the stream is open).",
		func(s engine.Snapshot) float64 { return float64(s.CompletedSets) }},
	{"osp_engine_completed_weight", "gauge",
		"Total weight of completed sets at drain (the OSP benefit).",
		func(s engine.Snapshot) float64 { return s.CompletedWeight }},
	{"osp_engine_elapsed_seconds", "gauge",
		"Seconds since the engine opened, frozen at drain.",
		func(s engine.Snapshot) float64 { return s.Elapsed.Seconds() }},
	{"osp_engine_elements_per_second", "gauge",
		"Processed elements per second of elapsed time.",
		func(s engine.Snapshot) float64 { return s.ElementsPerSec }},
}

// writeMetrics renders the whole exposition: per-state instance gauges,
// every per-instance engine series, then the server-level telemetry —
// per-stage latency histograms, HTTP outcome counters, decision-log
// counters, build info and Go runtime gauges.
func writeMetrics(w io.Writer, s *Server) {
	if s.cfg.NodeLabel != "" {
		fmt.Fprintf(w, "# HELP osp_node_info Cluster node identity (value is always 1; the label carries the information).\n")
		fmt.Fprintf(w, "# TYPE osp_node_info gauge\n")
		fmt.Fprintf(w, "osp_node_info{node=%s} 1\n", obs.QuoteLabel(s.cfg.NodeLabel))
	}
	instances := s.pool.Instances()

	states := map[engine.State]int{}
	for _, in := range instances {
		states[in.State()]++
	}
	fmt.Fprintf(w, "# HELP osp_instances Registered instances by lifecycle state.\n")
	fmt.Fprintf(w, "# TYPE osp_instances gauge\n")
	for _, st := range []engine.State{engine.StateIdle, engine.StateStreaming, engine.StateDrained} {
		fmt.Fprintf(w, "osp_instances{state=%s} %d\n", obs.QuoteLabel(st.String()), states[st])
	}

	// One snapshot per instance, reused across all series so every series
	// of an instance reflects the same instant.
	snaps := make([]engine.Snapshot, len(instances))
	labels := make([]string, len(instances))
	for i, in := range instances {
		snaps[i] = in.Snapshot()
		labels[i] = instanceLabels(in)
	}
	fmt.Fprintf(w, "# HELP osp_instance_state Lifecycle state of each instance (1 on the current state's series).\n")
	fmt.Fprintf(w, "# TYPE osp_instance_state gauge\n")
	for i, in := range instances {
		fmt.Fprintf(w, "osp_instance_state{%s,state=%s} 1\n", labels[i], obs.QuoteLabel(in.State().String()))
	}

	// Policy is an info gauge for the same reason state is: a label on the
	// counters would split every series if policies ever became mutable.
	fmt.Fprintf(w, "# HELP osp_instance_policy Admission policy of each instance (1 on the policy's series).\n")
	fmt.Fprintf(w, "# TYPE osp_instance_policy gauge\n")
	for i, in := range instances {
		fmt.Fprintf(w, "osp_instance_policy{%s,policy=%s} 1\n", labels[i], obs.QuoteLabel(in.Policy()))
	}

	for _, def := range perInstanceMetrics {
		fmt.Fprintf(w, "# HELP %s %s\n", def.name, def.help)
		fmt.Fprintf(w, "# TYPE %s %s\n", def.name, def.kind)
		for i := range instances {
			fmt.Fprintf(w, "%s{%s} %v\n", def.name, labels[i], def.value(snaps[i]))
		}
	}

	fmt.Fprintf(w, "# HELP osp_engine_shards Shard workers of the instance's engine.\n")
	fmt.Fprintf(w, "# TYPE osp_engine_shards gauge\n")
	for i, in := range instances {
		fmt.Fprintf(w, "osp_engine_shards{%s} %d\n", labels[i], in.Shards())
	}

	writeStageHistograms(w, &s.obs)
	writeHTTPCounters(w, &s.obs.http)
	writeStreamCounters(w, &s.obs.stream)
	writeDecisionLogMetrics(w, s.obs.decisions)
	writeRuntimeMetrics(w)
}

// writeStageHistograms renders the pipeline-stage latency histograms as
// one native Prometheus histogram family keyed by the stage label.
func writeStageHistograms(w io.Writer, o *serverObs) {
	const name = "osp_stage_duration_seconds"
	fmt.Fprintf(w, "# HELP %s Latency by pipeline stage: ingest_decode (JSON body to validated elements), stream_decode (batch frame to validated batch on the stream), queue_wait (batch dispatch to shard dequeue, once per batch part), decide (a shard's policy decide of one batch part), request (full HTTP round trip).\n", name)
	fmt.Fprintf(w, "# TYPE %s histogram\n", name)
	stages := []struct {
		stage string
		h     *obs.Histogram
	}{
		{"ingest_decode", &o.ingestDecode},
		{"stream_decode", &o.streamDecode},
		{"queue_wait", &o.queueWait},
		{"decide", &o.decide},
		{"request", &o.request},
	}
	for _, st := range stages {
		obs.WriteHistogram(w, name, "stage="+obs.QuoteLabel(st.stage), st.h.Snapshot())
	}
}

// writeHTTPCounters renders osp_http_requests_total{handler,code}: one
// counter per (matched mux pattern, status code) pair that has
// occurred, so error rates are visible next to engine progress.
func writeHTTPCounters(w io.Writer, h *httpStats) {
	fmt.Fprintf(w, "# HELP osp_http_requests_total HTTP requests by matched route pattern and status code.\n")
	fmt.Fprintf(w, "# TYPE osp_http_requests_total counter\n")
	keys, vals := h.snapshot()
	for i, k := range keys {
		fmt.Fprintf(w, "osp_http_requests_total{handler=%s,code=%s} %d\n",
			obs.QuoteLabel(k.handler), obs.QuoteLabel(strconv.Itoa(k.code)), vals[i])
	}
}

// writeStreamCounters renders the stream transport's lifetime
// counters: connection churn, batches carried, and terminal errors.
func writeStreamCounters(w io.Writer, st *streamStats) {
	fmt.Fprintf(w, "# HELP osp_stream_connections_total Stream transport connections accepted.\n")
	fmt.Fprintf(w, "# TYPE osp_stream_connections_total counter\n")
	fmt.Fprintf(w, "osp_stream_connections_total %d\n", st.connsTotal.Load())
	fmt.Fprintf(w, "# HELP osp_stream_connections_active Stream transport connections currently open.\n")
	fmt.Fprintf(w, "# TYPE osp_stream_connections_active gauge\n")
	fmt.Fprintf(w, "osp_stream_connections_active %d\n", st.connsActive.Load())
	fmt.Fprintf(w, "# HELP osp_stream_batches_total Batch frames ingested over the stream transport.\n")
	fmt.Fprintf(w, "# TYPE osp_stream_batches_total counter\n")
	fmt.Fprintf(w, "osp_stream_batches_total %d\n", st.batches.Load())
	fmt.Fprintf(w, "# HELP osp_stream_errors_total Streams ended by an error frame (either side).\n")
	fmt.Fprintf(w, "# TYPE osp_stream_errors_total counter\n")
	fmt.Fprintf(w, "osp_stream_errors_total %d\n", st.errors.Load())
}

// writeDecisionLogMetrics renders the decision log's lifetime counters
// and resolved sampling period. Nothing is rendered when the log is
// disabled — absent series, not zeros, so dashboards can distinguish
// "off" from "idle".
func writeDecisionLogMetrics(w io.Writer, d *obs.DecisionLog) {
	if d == nil {
		return
	}
	flushed, dropped := d.Stats()
	fmt.Fprintf(w, "# HELP osp_decision_log_flushed_total Sampled decisions flushed to the tail and sink.\n")
	fmt.Fprintf(w, "# TYPE osp_decision_log_flushed_total counter\n")
	fmt.Fprintf(w, "osp_decision_log_flushed_total %d\n", flushed)
	fmt.Fprintf(w, "# HELP osp_decision_log_dropped_total Sampled decisions dropped on full rings (drainer backlog).\n")
	fmt.Fprintf(w, "# TYPE osp_decision_log_dropped_total counter\n")
	fmt.Fprintf(w, "osp_decision_log_dropped_total %d\n", dropped)
	fmt.Fprintf(w, "# HELP osp_decision_log_sample_every Per-shard sampling period: every Nth decision is recorded.\n")
	fmt.Fprintf(w, "# TYPE osp_decision_log_sample_every gauge\n")
	fmt.Fprintf(w, "osp_decision_log_sample_every %d\n", d.SampleEvery())
}

// writeRuntimeMetrics renders build info and the Go runtime gauges.
func writeRuntimeMetrics(w io.Writer) {
	fmt.Fprintf(w, "# HELP osp_build_info Build metadata (value is always 1; the labels carry the information).\n")
	fmt.Fprintf(w, "# TYPE osp_build_info gauge\n")
	fmt.Fprintf(w, "osp_build_info{go_version=%s,version=%s,revision=%s} 1\n",
		obs.QuoteLabel(buildMeta.goVersion), obs.QuoteLabel(buildMeta.version), obs.QuoteLabel(buildMeta.revision))

	rt := readRuntimeStats()
	fmt.Fprintf(w, "# HELP osp_go_goroutines Live goroutines.\n")
	fmt.Fprintf(w, "# TYPE osp_go_goroutines gauge\n")
	fmt.Fprintf(w, "osp_go_goroutines %d\n", rt.goroutines)
	fmt.Fprintf(w, "# HELP osp_go_heap_alloc_bytes Bytes of allocated heap objects.\n")
	fmt.Fprintf(w, "# TYPE osp_go_heap_alloc_bytes gauge\n")
	fmt.Fprintf(w, "osp_go_heap_alloc_bytes %d\n", rt.heapBytes)
	fmt.Fprintf(w, "# HELP osp_go_heap_objects Live heap objects.\n")
	fmt.Fprintf(w, "# TYPE osp_go_heap_objects gauge\n")
	fmt.Fprintf(w, "osp_go_heap_objects %d\n", rt.heapObjects)
	fmt.Fprintf(w, "# HELP osp_go_gc_pause_seconds_total Cumulative stop-the-world GC pause time.\n")
	fmt.Fprintf(w, "# TYPE osp_go_gc_pause_seconds_total counter\n")
	fmt.Fprintf(w, "osp_go_gc_pause_seconds_total %s\n", obs.FormatFloat(rt.gcPauseSecs))
	fmt.Fprintf(w, "# HELP osp_go_gc_cycles_total Completed GC cycles.\n")
	fmt.Fprintf(w, "# TYPE osp_go_gc_cycles_total counter\n")
	fmt.Fprintf(w, "osp_go_gc_cycles_total %d\n", rt.gcCycles)
	fmt.Fprintf(w, "# HELP osp_go_next_gc_bytes Heap size at which the next GC cycle triggers.\n")
	fmt.Fprintf(w, "# TYPE osp_go_next_gc_bytes gauge\n")
	fmt.Fprintf(w, "osp_go_next_gc_bytes %d\n", rt.nextGCBytes)
}

// instanceLabels renders an instance's identifying label pairs. The
// lifecycle state is deliberately NOT part of these: putting a mutable
// state on a counter's labels would split the series every transition.
// State is exported separately as the osp_instance_state info gauge.
func instanceLabels(in *Instance) string {
	labels := "instance=" + obs.QuoteLabel(in.ID())
	if l := in.Label(); l != "" {
		labels += ",label=" + obs.QuoteLabel(l)
	}
	return labels
}

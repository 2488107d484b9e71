package serve

import (
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// serverObs bundles the service's own telemetry: the per-stage latency
// histograms, the HTTP outcome counters, and the (optional) decision
// log every engine in the pool samples into.
//
// The stage histograms are server-wide, not per-instance: obs.Histogram
// is plain atomic adds, so engines of every instance can share one
// histogram per stage and the result is identical to merging
// per-instance histograms at scrape — without the scrape-side work or
// the label-cardinality cost.
type serverObs struct {
	decisions *obs.DecisionLog // nil: decision logging disabled

	// The pipeline stages, in request order: decoding a JSON ingest
	// body into elements, decoding a batch frame on the stream, a batch
	// part's wait in a shard queue, a shard's decide of one batch part,
	// and the full HTTP round trip.
	ingestDecode obs.Histogram
	streamDecode obs.Histogram
	queueWait    obs.Histogram
	decide       obs.Histogram
	request      obs.Histogram

	http   httpStats
	stream streamStats
}

// attach is the pool's telemetry attach hook: it hands a registering
// engine the shared stage histograms plus, when decision logging is
// enabled, a fresh per-instance decision logger.
func (o *serverObs) attach(id, policy string, shards int) *obs.EngineTelemetry {
	tel := &obs.EngineTelemetry{QueueWait: &o.queueWait, Decide: &o.decide}
	if o.decisions != nil {
		tel.Decisions = o.decisions.Logger(id, policy, shards)
	}
	return tel
}

// detach is the pool's removal hook: flush the instance's remaining
// sampled decisions to the sink and stop serving its tail.
func (o *serverObs) detach(id string) {
	if o.decisions != nil {
		o.decisions.Remove(id)
	}
}

// httpKey identifies one osp_http_requests_total series.
type httpKey struct {
	handler string // the mux pattern that matched ("POST /v1/instances/{id}/elements")
	code    int
}

// httpStats counts finished requests by (handler, status). One mutexed
// map increment per request — amortized against a full HTTP round trip,
// and the handler string is the mux's interned pattern so steady-state
// counting allocates nothing.
type httpStats struct {
	mu     sync.Mutex
	counts map[httpKey]uint64
}

func (h *httpStats) inc(handler string, code int) {
	h.mu.Lock()
	if h.counts == nil {
		h.counts = make(map[httpKey]uint64)
	}
	h.counts[httpKey{handler, code}]++
	h.mu.Unlock()
}

// snapshot copies the counters sorted by handler then code, so the
// exposition is stable scrape to scrape.
func (h *httpStats) snapshot() ([]httpKey, []uint64) {
	h.mu.Lock()
	keys := make([]httpKey, 0, len(h.counts))
	for k := range h.counts {
		keys = append(keys, k)
	}
	h.mu.Unlock()
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].handler != keys[b].handler {
			return keys[a].handler < keys[b].handler
		}
		return keys[a].code < keys[b].code
	})
	vals := make([]uint64, len(keys))
	h.mu.Lock()
	for i, k := range keys {
		vals[i] = h.counts[k]
	}
	h.mu.Unlock()
	return keys, vals
}

// statusRecorder captures the response status for the request counters.
// Recorders are pooled: the middleware runs on every request, so it must
// not add per-request garbage of its own. Unwrap lets
// http.NewResponseController reach the server's writer — the stream
// upgrade hijacks through it.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

func (r *statusRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.ResponseWriter.Write(p)
}

var recorderPool = sync.Pool{New: func() any { return new(statusRecorder) }}

// observe is the instrumentation middleware around the whole mux: it
// times the end-to-end request and counts the outcome under the mux
// pattern that matched ("other" for unrouted paths).
func (s *Server) observe(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	_, pattern := s.mux.Handler(r)
	if pattern == "" {
		pattern = "other"
	}
	rec := recorderPool.Get().(*statusRecorder)
	rec.ResponseWriter, rec.status = w, 0
	s.mux.ServeHTTP(rec, r)
	code := rec.status
	rec.ResponseWriter = nil
	recorderPool.Put(rec)
	if code == 0 {
		code = http.StatusOK
	}
	s.obs.request.Observe(time.Since(start))
	s.obs.http.inc(pattern, code)
}

// runtimeStats is the scrape-time snapshot behind the Go runtime gauges.
type runtimeStats struct {
	goroutines   int
	heapBytes    uint64
	heapObjects  uint64
	gcPauseSecs  float64
	gcCycles     uint32
	nextGCBytes  uint64
	lastGCUnixNS uint64
}

func readRuntimeStats() runtimeStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeStats{
		goroutines:   runtime.NumGoroutine(),
		heapBytes:    ms.HeapAlloc,
		heapObjects:  ms.HeapObjects,
		gcPauseSecs:  float64(ms.PauseTotalNs) * 1e-9,
		gcCycles:     ms.NumGC,
		nextGCBytes:  ms.NextGC,
		lastGCUnixNS: ms.LastGC,
	}
}

// buildMeta is the constant label set of osp_build_info, resolved once:
// the toolchain version plus the module version and VCS revision when
// the binary was built from a stamped module.
type buildInfo struct {
	goVersion, version, revision string
}

var buildMeta = readBuildMeta()

func readBuildMeta() buildInfo {
	b := buildInfo{goVersion: runtime.Version(), version: "unknown", revision: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		if bi.Main.Version != "" {
			b.version = bi.Main.Version
		}
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				b.revision = s.Value
			}
		}
	}
	return b
}

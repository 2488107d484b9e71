// Package serve is the network-facing admission service: an HTTP front
// end over a pool of concurrent streaming engines. It turns the
// in-process engine of internal/engine into the paper's deployment story
// — a bottleneck router behind a network edge, remote producers racing
// element batches against the admission deadline, every verdict returned
// immediately.
//
// Endpoints (full request/response reference in docs/OPERATIONS.md):
//
//	POST   /v1/instances                 register a set system, open an engine
//	                                     (JSON, or a body of Content-Type
//	                                     application/x-osp-snapshot: a frame
//	                                     with an empty ID registers, any other
//	                                     restores the instance it was taken from)
//	GET    /v1/instances                 list instances with live metrics
//	GET    /v1/instances/{id}            one instance's status
//	POST   /v1/instances/{id}/elements   batched JSON element ingest → admit/drop
//	                                     verdicts (binary batches go over the stream)
//	POST   /v1/instances/{id}/snapshot   quiesce → snapshot frame of the
//	                                     instance's recoverable state (persisted
//	                                     to -snapshot-dir when configured)
//	POST   /v1/instances/{id}/drain      close the stream → final Result (idempotent;
//	                                     a result frame when the request accepts
//	                                     application/x-osp-result)
//	DELETE /v1/instances/{id}            drain and remove the instance
//	GET    /v1/instances/{id}/decisions  tail of the sampled decision log
//	                                     (404 unless Config.Decisions is set)
//	GET    /v1/policies                  registered admission policies + descriptions
//	GET    /metrics                      Prometheus text exposition (engine counters,
//	                                     per-stage latency histograms, HTTP outcome
//	                                     counters, runtime gauges, build info)
//	GET    /healthz                      liveness probe
//	GET    /v1/stream                    HTTP/1.1 Upgrade (osp-stream) to the binary
//	                                     stream protocol of internal/stream (stream.go)
//	GET    /debug/pprof/                 net/http/pprof (only with Config.EnablePprof)
//
// Binary ingest is the stream protocol, reached either through that
// upgrade on the main listener or on a separate raw-TCP listener
// (ServeStream). The JSON arm is the curl/debug path. Both arms hand
// the engine whole batches through Instance.IngestBatch with a Done
// callback, and both answer from the verdict bits the engine's shards
// set during their one decide: no element is decided twice, and an
// answer is sent only once the engine has decided its batch.
// Backpressure therefore reaches the client naturally — when shard
// queues are full, the ingest handler blocks before answering.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/setsystem"
	"repro/internal/stream"
	"repro/internal/wire"
)

// Config sizes the service. The zero value is usable.
type Config struct {
	// MaxInstances bounds the engine pool; 0 means 1024.
	MaxInstances int
	// MaxBatch bounds the elements accepted in one ingest request;
	// 0 means 65536. Oversized batches are rejected with 400 before any
	// element is ingested.
	MaxBatch int
	// MaxBodyBytes bounds every request body; 0 means 256 MiB. Larger
	// bodies are rejected with 413 — nothing is buffered past the limit.
	MaxBodyBytes int64
	// Decisions enables the sampled decision log: every registered
	// engine samples admission decisions into it, the tail is served
	// from GET /v1/instances/{id}/decisions, and the log's counters
	// appear in /metrics. Nil disables decision logging (the endpoint
	// answers 404). The server does not own the log's lifecycle — the
	// caller that created it closes it after Shutdown.
	Decisions *obs.DecisionLog
	// EnablePprof mounts net/http/pprof under GET /debug/pprof/ — the
	// standard profiling surface, off by default because it exposes
	// goroutine stacks and heap contents to anyone who can reach the
	// port.
	EnablePprof bool
	// StreamWindow is the pipelining window of the stream transport,
	// on both entries (the GET /v1/stream upgrade and the raw-TCP
	// ServeStream): how many unanswered batch frames one connection may
	// have in flight. Each slot costs one pooled verdict buffer per
	// connection. 0 means 32; values above stream.MaxWindow (1024) are
	// clamped.
	StreamWindow int
	// StreamTimings records per-batch decode latency into the
	// osp_stream_decode histogram. Off by default: the two time.Now
	// stamps per frame are measurable at stream rates (the other stage
	// histograms are fed by engine telemetry and HTTP handlers, which
	// pay per batch or per request, not per pipelined frame).
	StreamTimings bool
	// StreamDrainGrace bounds how long Shutdown lets a quiet stream
	// connection linger: frames read within the grace window are still
	// answered with real verdicts, then the stream ends with a
	// "shutting down" error frame. 0 means 1 second.
	StreamDrainGrace time.Duration
	// SnapshotDir, when set, is where POST /v1/instances/{id}/snapshot
	// additionally persists the instance's snapshot frame (atomic
	// tmp + rename + fsync). The daemon pairs it with WriteSnapshots at
	// shutdown and RestoreDir at boot (ospserve -snapshot-dir) so a
	// restart — graceful or kill -9 after a persisted snapshot — resumes
	// every instance bit-for-bit.
	SnapshotDir string
	// NodeLabel names this node in a cluster deployment (ospserve
	// -node); when set it is exported as the osp_node_info gauge so a
	// fleet dashboard can join per-node scrapes to the coordinator's
	// slot series. Empty means the series is absent (single-node
	// deployments stay label-free).
	NodeLabel string
}

// Hard caps on client-supplied engine sizing: a registration is a cheap
// unauthenticated request, so nothing it carries may scale the daemon's
// allocations unboundedly — neither a single field (the shard count is a
// goroutine + a channel + an m-sized counter array each) nor a product
// of fields (shards × sets is the total counter cells; shards × queue
// depth sizes the pre-filled batch free list). Vars, not consts, so
// tests can lower them without allocating gigabytes.
var (
	maxSets          = wire.MaxSets   // sets per instance (m); frames carry the same cap
	maxLabelLen      = math.MaxUint16 // a frame's string bound
	maxShards        = 1024
	maxBatchSize     = 1 << 20
	maxQueueDepth    = 1 << 16
	maxCounterCells  = 1 << 27 // resolved shards × sets, 1 B each: ≤ 192 MB with the engine's 4m-byte carry
	maxInFlightBatch = 1 << 20 // resolved shards × (queue depth + 1)
)

// withDefaults resolves zero fields to their defaults.
func (c Config) withDefaults() Config {
	if c.MaxInstances <= 0 {
		c.MaxInstances = 1024
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 65536
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 256 << 20
	}
	if c.StreamWindow <= 0 {
		c.StreamWindow = 32
	}
	if c.StreamWindow > stream.MaxWindow {
		c.StreamWindow = stream.MaxWindow
	}
	if c.StreamDrainGrace <= 0 {
		c.StreamDrainGrace = time.Second
	}
	return c
}

// Server is the admission service: an http.Handler wiring the API routes
// to an engine pool. Create with New, mount anywhere an http.Handler
// goes, and call Shutdown for a graceful drain of every live engine.
type Server struct {
	cfg    Config
	pool   *Pool
	mux    *http.ServeMux
	obs    serverObs
	stream streamState
	// copyDecode sends every stream frame through the copying decoder,
	// the path big-endian hosts take because wire.AliasBatch declines
	// their frames. Only this package's tests set it, to pin that path
	// against alias decode on any host.
	copyDecode bool
}

// New builds a Server with a fresh pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{cfg: cfg, pool: NewPool(cfg.MaxInstances), mux: http.NewServeMux()}
	s.obs.decisions = cfg.Decisions
	s.pool.SetTelemetry(s.obs.attach, s.obs.detach)
	s.mux.HandleFunc("POST /v1/instances", s.handleRegister)
	s.mux.HandleFunc("GET /v1/instances", s.handleList)
	s.mux.HandleFunc("GET /v1/policies", s.handlePolicies)
	s.mux.HandleFunc("GET /v1/instances/{id}", s.handleStatus)
	s.mux.HandleFunc("POST /v1/instances/{id}/elements", s.handleIngest)
	s.mux.HandleFunc("POST /v1/instances/{id}/snapshot", s.handleSnapshot)
	s.mux.HandleFunc("POST /v1/instances/{id}/drain", s.handleDrain)
	s.mux.HandleFunc("DELETE /v1/instances/{id}", s.handleRemove)
	s.mux.HandleFunc("GET /v1/instances/{id}/decisions", s.handleDecisions)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET "+stream.UpgradePath, s.handleStreamUpgrade)
	if cfg.EnablePprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s
}

// ServeHTTP implements http.Handler, wrapping every route in the
// instrumentation middleware (end-to-end latency histogram + outcome
// counters).
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.observe(w, r) }

// Pool exposes the engine pool (the daemon uses it for shutdown
// reporting; tests use it to reach instances directly).
func (s *Server) Pool() *Pool { return s.pool }

// Shutdown gracefully closes the service: stream listeners and
// connections quiesce first — pipelined frames already read get real
// verdicts, then each stream ends with a "shutting down" error frame
// (drainStreams) — and only then are registrations and ingestion
// refused and every live engine drained, in-flight batches decided,
// not dropped. See Pool.Shutdown.
func (s *Server) Shutdown(ctx context.Context) error {
	s.drainStreams(ctx)
	return s.pool.Shutdown(ctx)
}

// writeJSON writes a JSON response body with the given status. The body
// is marshaled before the header goes out, so an unencodable value (a
// non-finite float, say) yields a clean 500 instead of a 200 with a
// truncated body.
func writeJSON(w http.ResponseWriter, status int, body any) {
	raw, err := json.Marshal(body)
	if err != nil {
		raw = []byte(fmt.Sprintf(`{"error":"encode response: %v"}`, err))
		status = http.StatusInternalServerError
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(raw) //nolint:errcheck // client gone mid-write is not actionable
}

// writeError writes the uniform error body.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// decodeBody strictly decodes a JSON request body into v, holding the
// body to the configured size limit.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				"request body exceeds %d bytes", tooBig.Limit)
			return false
		}
		writeError(w, http.StatusBadRequest, "malformed request body: %v", err)
		return false
	}
	return true
}

// handleRegister opens a new instance: POST /v1/instances. A body of
// Content-Type application/x-osp-snapshot is a frame (handleFrame): one
// with an empty ID registers fresh like this JSON arm, any other is a
// restore-on-register under the frame's original ID.
func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	if mediaType(r.Header.Get("Content-Type")) == wire.ContentTypeSnapshot {
		s.handleFrame(w, r)
		return
	}
	var req RegisterRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	spec := Spec{
		Info: core.Info{Weights: req.Weights, Sizes: req.Sizes},
		Seed: req.Seed,
		Engine: engine.Config{
			Shards: req.Shards, BatchSize: req.BatchSize, QueueDepth: req.QueueDepth,
			Policy: req.Policy,
		},
		Label: req.Label,
	}
	if err := checkSpec(spec); err != nil {
		writeError(w, http.StatusBadRequest, "register: %v", err)
		return
	}
	in, err := s.pool.Register(spec)
	writeRegistered(w, "register", in, err)
}

// checkSpec applies every registration check — to a JSON registration,
// a registration frame and a restore alike. A registration is a cheap
// unauthenticated request, so besides validating the Info it clamps the
// client-supplied engine sizing: these fields allocate real resources
// per unit, individually and in products.
func checkSpec(spec Spec) error {
	info, cfg := spec.Info, spec.Engine
	switch m := len(info.Weights); {
	case m == 0:
		return errors.New("at least one set required")
	case m != len(info.Sizes):
		return fmt.Errorf("%d weights but %d sizes", m, len(info.Sizes))
	case m > maxSets:
		return fmt.Errorf("%d sets exceeds limit %d", m, maxSets)
	}
	for i, weight := range info.Weights {
		if weight < 0 || math.IsInf(weight, 1) || math.IsNaN(weight) {
			return fmt.Errorf("set %d has invalid weight %v", i, weight)
		}
		if info.Sizes[i] < 1 {
			return fmt.Errorf("set %d has size %d, want >= 1", i, info.Sizes[i])
		}
	}
	switch {
	case len(spec.Label) > maxLabelLen:
		return fmt.Errorf("label of %d bytes exceeds limit %d", len(spec.Label), maxLabelLen)
	case cfg.Shards < 0 || cfg.Shards > maxShards:
		return fmt.Errorf("shards %d out of range [0, %d]", cfg.Shards, maxShards)
	case cfg.BatchSize < 0 || cfg.BatchSize > maxBatchSize:
		return fmt.Errorf("batch_size %d out of range [0, %d]", cfg.BatchSize, maxBatchSize)
	case cfg.QueueDepth < 0 || cfg.QueueDepth > maxQueueDepth:
		return fmt.Errorf("queue_depth %d out of range [0, %d]", cfg.QueueDepth, maxQueueDepth)
	}
	// Resolve the policy name up front so an unknown name 400s with the
	// registered alternatives before any engine resources are sized.
	if _, err := core.LookupPolicy(cfg.Policy); err != nil {
		return err
	}
	resolved := cfg.Resolved()
	switch {
	case resolved.Shards*len(info.Weights) > maxCounterCells:
		return fmt.Errorf("%d shards x %d sets exceeds %d counter cells", resolved.Shards, len(info.Weights), maxCounterCells)
	case resolved.Shards*(resolved.QueueDepth+1) > maxInFlightBatch:
		return fmt.Errorf("%d shards x %d queue depth exceeds %d in-flight batches", resolved.Shards, resolved.QueueDepth, maxInFlightBatch)
	}
	return nil
}

// writeRegistered answers a registration or restore: 201 with the new
// instance, or the status its error maps to.
func writeRegistered(w http.ResponseWriter, op string, in *Instance, err error) {
	switch {
	case errors.Is(err, ErrPoolClosed):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	case errors.Is(err, ErrPoolFull):
		writeError(w, http.StatusTooManyRequests, "%v", err)
	case err != nil:
		writeError(w, http.StatusBadRequest, "%s: %v", op, err)
	default:
		writeJSON(w, http.StatusCreated, RegisterResponse{
			ID: in.ID(), Shards: in.Shards(), Policy: in.Policy(), State: in.State().String(),
		})
	}
}

// mediaType strips parameters and whitespace off a Content-Type value.
func mediaType(ct string) string {
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	return strings.TrimSpace(ct)
}

// instance resolves the {id} path parameter, answering 404 on a miss.
func (s *Server) instance(w http.ResponseWriter, r *http.Request) (*Instance, bool) {
	id := r.PathValue("id")
	in, ok := s.pool.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown instance %q", id)
		return nil, false
	}
	return in, true
}

// handleIngest ingests one JSON batch: POST /v1/instances/{id}/elements.
// Batches are atomic: every element is validated before the batch is
// submitted, so a malformed batch changes nothing. The batch reaches the
// engine through Instance.IngestBatch, as a stream frame does, and the
// response is built from the verdict bits the shards set in their one
// decide, once they have decided the whole batch. A binary batch frame
// (Content-Type application/x-osp-batch) is refused with 415: binary
// ingest is the stream protocol, GET /v1/stream.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	in, ok := s.instance(w, r)
	if !ok {
		return
	}
	if s.pool.Closed() {
		writeError(w, http.StatusServiceUnavailable, "%v", ErrPoolClosed)
		return
	}
	if mediaType(r.Header.Get("Content-Type")) == wire.ContentTypeBatch {
		writeError(w, http.StatusUnsupportedMediaType,
			"ingest: %s batches go over the stream protocol (GET %s with Upgrade: %s)",
			wire.ContentTypeBatch, stream.UpgradePath, stream.UpgradeToken)
		return
	}
	decodeStart := time.Now()
	var req IngestRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	els := req.Elements
	if len(els) == 0 {
		writeError(w, http.StatusBadRequest, "ingest: empty batch")
		return
	}
	if len(els) > s.cfg.MaxBatch {
		writeError(w, http.StatusBadRequest, "ingest: batch of %d exceeds limit %d", len(els), s.cfg.MaxBatch)
		return
	}
	// The request owns its batch (Aliased), so the engine detaches it
	// after the decide rather than keeping up to MaxBatch elements of
	// buffers on its free list for the instance's life.
	b := &engine.Batch{
		Offs:    make([]int32, 1, len(els)+1),
		Caps:    make([]int32, 0, len(els)),
		Aliased: true,
	}
	for i, we := range els {
		// Check each element before copying it: the copy narrows its
		// capacity to int32, so only a checked capacity survives it.
		if err := setsystem.CheckElement(we.element(), in.NumSets()); err != nil {
			writeError(w, http.StatusBadRequest, "ingest: element %d: %v", i, err)
			return
		}
		b.Members = append(b.Members, we.Members...)
		b.Offs = append(b.Offs, int32(len(b.Members)))
		b.Caps = append(b.Caps, int32(we.Capacity))
	}
	total := len(b.Members)
	s.obs.ingestDecode.Observe(time.Since(decodeStart))
	// Done runs on a shard goroutine and must not block: the channel
	// has room for the batch's one answer. No lock is held while
	// waiting; a Drain meanwhile waits for the shards, which answer
	// first.
	done := make(chan []byte, 1)
	b.Done = func(_ uint32, masks []byte) { done <- masks }
	if err := in.IngestBatch(b); err != nil {
		if errors.Is(err, engine.ErrDrained) {
			// Distinguish a client-drained instance (terminal, 409) from
			// a drain forced by graceful shutdown racing this request
			// (retryable elsewhere, 503 as documented).
			if s.pool.Closed() {
				writeError(w, http.StatusServiceUnavailable, "%v", ErrPoolClosed)
				return
			}
			writeError(w, http.StatusConflict, "ingest: instance %s is already drained", in.ID())
			return
		}
		writeError(w, http.StatusBadRequest, "ingest: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, IngestResponse{
		Verdicts: verdictsOf(els, <-done, total),
		Ingested: len(els),
	})
}

// verdictsOf splits every element's members by the verdict bits the
// shards set — masks holds each element's wire.MaskLen bytes back to
// back — into admitted and dropped, both in member order, over one
// array of the batch's total members.
func verdictsOf(els []WireElement, masks []byte, total int) []Verdict {
	split := make([]setsystem.SetID, total)
	verdicts := make([]Verdict, len(els))
	for i, we := range els {
		k := len(we.Members)
		mask := masks[:wire.MaskLen(k)]
		masks = masks[len(mask):]
		admitted := 0
		for _, c := range mask {
			admitted += bits.OnesCount8(c)
		}
		row := split[:k:k]
		split = split[k:]
		a, d := 0, admitted
		for j, set := range we.Members {
			if wire.MaskBit(mask, j) {
				row[a] = set
				a++
			} else {
				row[d] = set
				d++
			}
		}
		verdicts[i] = Verdict{Admitted: row[:admitted:admitted], Dropped: row[admitted:]}
	}
	return verdicts
}

// handleDrain closes a stream: POST /v1/instances/{id}/drain. A request
// that accepts application/x-osp-result gets the drained Result as a
// result frame, written straight from the engine's Result; any other
// gets the JSON body.
func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	in, ok := s.instance(w, r)
	if !ok {
		return
	}
	in.MarkFinal() // client-requested: the stream logically ends here
	res, err := in.Drain()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "drain: %v", err)
		return
	}
	if accepts(r, wire.ContentTypeResult) {
		w.Header().Set("Content-Type", wire.ContentTypeResult)
		w.Header().Set("Content-Length", strconv.Itoa(wire.ResultLen(res)))
		w.WriteHeader(http.StatusOK)
		wire.WriteResult(w, res) //nolint:errcheck // client gone mid-write is not actionable
		return
	}
	writeJSON(w, http.StatusOK, DrainResponse{
		Result:  wireResult(res),
		Metrics: wireSnapshot(in.Snapshot()),
	})
}

// accepts reports whether the request's Accept header names mediaType.
func accepts(r *http.Request, mt string) bool {
	for _, h := range r.Header.Values("Accept") {
		for _, v := range strings.Split(h, ",") {
			if mediaType(v) == mt {
				return true
			}
		}
	}
	return false
}

// handleStatus reports one instance: GET /v1/instances/{id}.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	in, ok := s.instance(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, in.Status())
}

// handleList reports every instance: GET /v1/instances.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	instances := s.pool.Instances()
	resp := ListResponse{Instances: make([]InstanceStatus, len(instances))}
	for i, in := range instances {
		resp.Instances[i] = in.Status()
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleRemove drains and deletes an instance: DELETE /v1/instances/{id}.
func (s *Server) handleRemove(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if in, ok := s.pool.Get(id); ok {
		in.MarkFinal()
	}
	if s.cfg.SnapshotDir != "" {
		// A removed instance must not resurrect at the next boot.
		os.Remove(filepath.Join(s.cfg.SnapshotDir, snapshotFileName(id))) //nolint:errcheck // best effort
	}
	if err := s.pool.Remove(id); err != nil {
		if errors.Is(err, ErrUnknownInstance) {
			writeError(w, http.StatusNotFound, "unknown instance %q", id)
			return
		}
		writeError(w, http.StatusInternalServerError, "remove: %v", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handlePolicies reports the registered admission policies:
// GET /v1/policies. The rows come straight from the core policy
// registry, so a policy registered at runtime (core.RegisterPolicy)
// appears here without any server change — clients discover what this
// server offers instead of hardcoding the built-in names.
func (s *Server) handlePolicies(w http.ResponseWriter, r *http.Request) {
	infos := core.PolicyInfos()
	resp := PoliciesResponse{Policies: make([]PolicyDescription, len(infos))}
	for i, info := range infos {
		resp.Policies[i] = PolicyDescription{Name: info.Name, Description: info.Description}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleDecisions serves the sampled decision log's tail:
// GET /v1/instances/{id}/decisions[?n=max]. Rings are flushed
// synchronously first, so the response reflects decisions made up to
// this request, not up to the drainer's last pass. Answers 404 when the
// server runs without a decision log.
func (s *Server) handleDecisions(w http.ResponseWriter, r *http.Request) {
	in, ok := s.instance(w, r)
	if !ok {
		return
	}
	dlog := s.obs.decisions
	if dlog == nil {
		writeError(w, http.StatusNotFound, "decision log disabled (start the server with -decision-log)")
		return
	}
	max := 0
	if q := r.URL.Query().Get("n"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 1 {
			writeError(w, http.StatusBadRequest, "decisions: n must be a positive integer, got %q", q)
			return
		}
		max = n
	}
	dlog.Flush()
	recs, _ := dlog.Tail(in.ID(), max)
	if recs == nil {
		recs = []obs.Decision{}
	}
	writeJSON(w, http.StatusOK, DecisionsResponse{
		Instance:    in.ID(),
		SampleEvery: dlog.SampleEvery(),
		Decisions:   recs,
	})
}

// handleMetrics renders the Prometheus exposition: GET /metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	writeMetrics(w, s)
}

// handleHealthz is the liveness probe: GET /healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.pool.Closed() {
		writeError(w, http.StatusServiceUnavailable, "shutting down")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

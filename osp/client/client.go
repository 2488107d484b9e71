// Package client is the Go client for the networked admission service
// (osp.NewServer / ospserve -listen): registering set-system instances,
// streaming element batches for immediate admit/drop verdicts, and
// draining the final Result.
//
// The protocol mirrors the OSP model: Register ships only the up-front
// information — per-set weights and declared sizes plus the shared
// priority seed — then elements stream in batches, each answered with
// the verdict the engine's coordination-free admission policy reached.
// Batches ride a binary verdict stream (an HTTP/1.1 Upgrade of the
// server's own listener, or its raw stream port), register carries an
// internal/wire snapshot frame and drain a result frame. The server's
// JSON endpoints, which curl speaks, answer the same. The drained
// Result is bit-for-bit identical to a serial osp.Run with
// the matching osp.NewPolicyAlgorithm(policy, seed) over the same
// elements — osp.NewHashRandPr(seed) for the default randpr policy —
// which is how cmd/osploadgen verifies a live server. The HTTP API and
// its operational semantics are documented in docs/OPERATIONS.md.
//
//	c, _ := client.New("http://localhost:8080")
//	inst, _ := c.Register(ctx, client.Spec{
//	    Info: osp.InfoOf(workload), Seed: 42,
//	})
//	verdicts, _ := inst.Ingest(ctx, workload.Elements)
//	res, _ := inst.Drain(ctx)
package client

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"

	"repro/internal/wire"
	"repro/osp"
)

// Client talks to one admission server. Safe for concurrent use (the
// underlying http.Client is).
type Client struct {
	base       string
	host       string // base URL's host:port, the stream upgrade's dial target
	https      bool
	hc         *http.Client
	streamAddr string       // host:port of the raw-TCP stream listener, "" = upgrade
	retry      *RetryPolicy // nil = no retries (WithRetry)
}

// Option customizes a Client.
type Option func(*Client)

// WithHTTPClient substitutes the http.Client used for every request
// (timeouts, transports, instrumentation). The default is a plain
// &http.Client{}.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// New returns a client for the admission server at baseURL, e.g.
// "http://localhost:8080".
func New(baseURL string, opts ...Option) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("client: bad base URL %q: %w", baseURL, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("client: base URL %q must be http or https", baseURL)
	}
	port := u.Port()
	if port == "" {
		port = "80"
		if u.Scheme == "https" {
			port = "443"
		}
	}
	c := &Client{
		base:  strings.TrimRight(u.String(), "/"),
		host:  net.JoinHostPort(u.Hostname(), port),
		https: u.Scheme == "https",
		hc:    &http.Client{},
	}
	for _, opt := range opts {
		opt(c)
	}
	return c, nil
}

// APIError is a non-2xx response from the server, carrying the HTTP
// status code and the server's error message.
type APIError struct {
	// StatusCode is the HTTP status (400 malformed, 404 unknown
	// instance, 409 ingest after drain, 413 body too large, 429 pool
	// full, 503 shutting down). A stream's Error frame carries the
	// status the HTTP API would have answered.
	StatusCode int
	// Message is the server's error text.
	Message string
}

// Error implements error.
func (e *APIError) Error() string {
	return fmt.Sprintf("client: server returned %d: %s", e.StatusCode, e.Message)
}

// Spec describes one instance registration.
type Spec struct {
	// Info is the up-front information: per-set weights and declared
	// sizes — all an online algorithm may know before the stream.
	Info osp.Info
	// Seed is the shared 64-bit policy seed; a serial osp.Run with
	// osp.NewPolicyAlgorithm(Engine.Policy, Seed) is the verification
	// oracle (osp.NewHashRandPr(Seed) for the default randpr policy).
	Seed uint64
	// Engine sizes the server-side engine and names its admission policy
	// (Engine.Policy, "" = the server default "randpr"; valid names are
	// osp.PolicyNames()). Zero fields take the engine defaults.
	Engine osp.EngineConfig
	// Label optionally tags the instance's Prometheus series.
	Label string
}

// Verdict is the server's immediate decision for one element: the at
// most b(u) parent sets it was admitted to and the memberships dropped,
// both in ascending SetID order.
type Verdict struct {
	// Admitted lists the sets the element was assigned to.
	Admitted []osp.SetID `json:"admitted"`
	// Dropped lists the memberships denied — in the paper's router
	// reading, the frames whose packet was dropped at this slot.
	Dropped []osp.SetID `json:"dropped"`
}

// MetricsSnapshot is the wire form of the server-side engine's live
// counters (see osp.EngineSnapshot for field semantics).
type MetricsSnapshot struct {
	// Submitted counts elements flushed to shard queues; Processed
	// counts elements already decided. Submitted−Processed is the
	// queued backlog.
	Submitted uint64 `json:"submitted"`
	// Processed counts elements decided by shard workers.
	Processed uint64 `json:"processed"`
	// Batches counts ingestion batches handed to shards.
	Batches uint64 `json:"batches"`
	// Assigned counts admitted memberships; Dropped counts denied ones.
	Assigned uint64 `json:"assigned"`
	// Dropped counts memberships denied (packets dropped).
	Dropped uint64 `json:"dropped"`
	// CompletedSets and CompletedWeight are the drain-time completion
	// totals (zero while the stream is open).
	CompletedSets int `json:"completed_sets"`
	// CompletedWeight is the total weight of completed sets at drain.
	CompletedWeight float64 `json:"completed_weight"`
	// ElapsedSeconds is time since the engine opened, frozen at drain.
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	// ElementsPerSec is Processed divided by ElapsedSeconds.
	ElementsPerSec float64 `json:"elements_per_sec"`
}

// Status is one instance's registration and live-metrics row.
type Status struct {
	// ID is the server-assigned instance identifier.
	ID string `json:"id"`
	// Label is the metrics label supplied at registration, if any.
	Label string `json:"label,omitempty"`
	// State is the lifecycle state: "idle", "streaming" or "drained".
	State string `json:"state"`
	// Seed is the shared policy seed.
	Seed uint64 `json:"seed"`
	// Policy is the instance's resolved admission-policy name.
	Policy string `json:"policy"`
	// Shards is the resolved shard-worker count.
	Shards int `json:"shards"`
	// Sets is m, the number of sets in the instance's universe.
	Sets int `json:"sets"`
	// Metrics is the engine's live counter snapshot.
	Metrics MetricsSnapshot `json:"metrics"`
}

// Instance is a handle to one registered instance on the server.
type Instance struct {
	c      *Client
	id     string
	shards int
	policy string

	// tmu serializes ingest and Close over the pinned stream, which is
	// a single in-order connection.
	tmu sync.Mutex
	// pinned is the long-lived verdict stream ingest opened, nil
	// when none is open (guarded by tmu).
	pinned *Stream
}

// wire shapes (mirroring internal/serve; the contract is the JSON).
type registerResponse struct {
	ID     string `json:"id"`
	Shards int    `json:"shards"`
	Policy string `json:"policy"`
	State  string `json:"state"`
}

type listResponse struct {
	Instances []Status `json:"instances"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// PolicyInfo is one row of GET /v1/policies: a policy name the server
// accepts at registration and the registry's one-line description.
type PolicyInfo struct {
	Name        string `json:"name"`
	Description string `json:"description"`
}

type policiesResponse struct {
	Policies []PolicyInfo `json:"policies"`
}

// apiError reads a non-2xx response body into an *APIError.
func apiError(resp *http.Response) error {
	var er errorResponse
	msg := ""
	if raw, rerr := io.ReadAll(io.LimitReader(resp.Body, 64<<10)); rerr == nil {
		if json.Unmarshal(raw, &er) == nil && er.Error != "" {
			msg = er.Error
		} else {
			msg = strings.TrimSpace(string(raw))
		}
	}
	return &APIError{StatusCode: resp.StatusCode, Message: msg}
}

// doJSON performs one bodiless request and decodes its JSON answer into
// out (nil: discard it); a non-2xx answer decodes into *APIError.
func (c *Client) doJSON(ctx context.Context, method, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, nil)
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return apiError(resp)
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("client: decode %s %s response: %w", method, path, err)
	}
	return nil
}

// Register opens a new instance on the server and returns its handle.
// The registration travels as a snapshot frame with an empty ID and zero
// counters, piped from the encoder into the request body so the frame is
// never held whole.
func (c *Client) Register(ctx context.Context, spec Spec) (*Instance, error) {
	m := len(spec.Info.Weights)
	if len(spec.Info.Sizes) != m {
		return nil, fmt.Errorf("client: register: %d weights but %d sizes", m, len(spec.Info.Sizes))
	}
	if len(spec.Label) > math.MaxUint16 || len(spec.Engine.Policy) > math.MaxUint16 {
		return nil, fmt.Errorf("client: register: label and policy name are limited to %d bytes", math.MaxUint16)
	}
	snap := &wire.Snapshot{
		Label: spec.Label, Policy: spec.Engine.Policy, Seed: spec.Seed,
		Shards: spec.Engine.Shards, BatchSize: spec.Engine.BatchSize, QueueDepth: spec.Engine.QueueDepth,
		Weights: spec.Info.Weights, Sizes: spec.Info.Sizes, Assigned: make([]int32, m),
	}
	pr, pw := io.Pipe()
	encoded := make(chan struct{})
	go func() {
		pw.CloseWithError(wire.WriteSnapshot(pw, snap))
		close(encoded)
	}()
	// Closing the read side fails the encoder's pending write, so no
	// goroutine reads spec after Register returns, whatever the outcome.
	defer func() {
		pr.Close()
		<-encoded
	}()
	return c.postFrame(ctx, pr, int64(wire.SnapshotLen(snap)))
}

// postFrame posts a snapshot frame of size bytes to /v1/instances — a
// registration when the frame has no ID, a restore otherwise — and
// returns the handle of the instance the server opened.
func (c *Client) postFrame(ctx context.Context, frame io.Reader, size int64) (*Instance, error) {
	req, err := http.NewRequestWithContext(ctx, "POST", c.base+"/v1/instances", frame)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	req.ContentLength = size
	req.Header.Set("Content-Type", wire.ContentTypeSnapshot)
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("client: POST /v1/instances: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return nil, apiError(resp)
	}
	var rr registerResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		return nil, fmt.Errorf("client: decode POST /v1/instances response: %w", err)
	}
	return &Instance{c: c, id: rr.ID, shards: rr.Shards, policy: rr.Policy}, nil
}

// Instances lists every instance on the server with live metrics.
func (c *Client) Instances(ctx context.Context) ([]Status, error) {
	var resp listResponse
	if err := c.doJSON(ctx, "GET", "/v1/instances", &resp); err != nil {
		return nil, err
	}
	return resp.Instances, nil
}

// Policies lists the admission policies this server accepts at
// registration, each with the registry's one-line description — the
// discovery call that replaces hardcoding the built-in names.
func (c *Client) Policies(ctx context.Context) ([]PolicyInfo, error) {
	var resp policiesResponse
	if err := c.doJSON(ctx, "GET", "/v1/policies", &resp); err != nil {
		return nil, err
	}
	return resp.Policies, nil
}

// Metrics fetches the raw Prometheus text exposition from /metrics.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, "GET", c.base+"/metrics", nil)
	if err != nil {
		return "", fmt.Errorf("client: %w", err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", fmt.Errorf("client: GET /metrics: %w", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", fmt.Errorf("client: read /metrics: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return "", &APIError{StatusCode: resp.StatusCode, Message: strings.TrimSpace(string(raw))}
	}
	return string(raw), nil
}

// Health probes /healthz; nil means the server is up and accepting work.
func (c *Client) Health(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, "GET", c.base+"/healthz", nil)
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("client: GET /healthz: %w", err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // probe body is disposable
	if resp.StatusCode != http.StatusOK {
		return &APIError{StatusCode: resp.StatusCode}
	}
	return nil
}

// ID returns the server-assigned instance identifier.
func (in *Instance) ID() string { return in.id }

// Shards returns the resolved shard-worker count of the server-side
// engine.
func (in *Instance) Shards() int { return in.shards }

// Policy returns the resolved admission-policy name of the server-side
// engine ("randpr" when the registration left it empty).
func (in *Instance) Policy() string { return in.policy }

// Ingest streams one batch of elements in arrival order and returns the
// immediate admit/drop verdict for each. Batches are atomic: on any
// invalid element the whole batch is rejected (an *APIError with status
// 400) and nothing is ingested. When the server-side shard queues are
// full the call blocks — backpressure propagates to the producer, which
// is the paper's admission deadline made tangible.
//
// The batch rides the instance's pinned verdict stream, as IngestFunc
// sends it. The verdicts are bit-for-bit those the server's JSON
// endpoint answers: every arm applies one policy state.
//
// With WithRetry configured, transient failures (transport errors, 429,
// 5xx) are retried under the policy's backoff and budget; permanent 4xx
// rejections are returned immediately.
func (in *Instance) Ingest(ctx context.Context, els []osp.Element) ([]Verdict, error) {
	// Two arrays back the whole batch's verdicts: admitted is the
	// callback's list, dropped the element's other members, both in
	// member order.
	total := 0
	for _, el := range els {
		total += len(el.Members)
	}
	admitted := make([]osp.SetID, 0, total)
	dropped := make([]osp.SetID, 0, total)
	verdicts := make([]Verdict, len(els))
	err := in.IngestFunc(ctx, els, func(i int, adm []osp.SetID) {
		aStart, dStart := len(admitted), len(dropped)
		k := 0
		for _, s := range els[i].Members {
			if k < len(adm) && adm[k] == s {
				admitted = append(admitted, s)
				k++
			} else {
				dropped = append(dropped, s)
			}
		}
		verdicts[i] = Verdict{
			Admitted: admitted[aStart:len(admitted):len(admitted)],
			Dropped:  dropped[dStart:len(dropped):len(dropped)],
		}
	})
	if err != nil {
		return nil, err
	}
	return verdicts, nil
}

// Drain closes the stream and returns the final Result — bit-for-bit
// identical to a serial osp.Run with osp.NewHashRandPr under the
// instance's seed over the same elements. The instance's pinned verdict
// stream, if any, is released first: every batch it carried has been
// answered. The server answers with a result frame (Accept:
// application/x-osp-result) carrying the Result its engine drained —
// completed sets, benefit bits and per-set counts, 4 bytes per set —
// which the client decodes with no recomputation. Idempotent: draining
// again returns the same Result — which is also what makes it safe to
// retry under WithRetry.
func (in *Instance) Drain(ctx context.Context) (*osp.Result, error) {
	in.tmu.Lock()
	if in.pinned != nil {
		in.dropPinned()
	}
	in.tmu.Unlock()
	var res *osp.Result
	err := in.c.withRetry(ctx, func(ctx context.Context) (err error) {
		res, err = in.drainFrame(ctx)
		return err
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// drainFrame is one attempt of Drain: it reads the result frame through
// wire's fixed chunk and returns the Result it carries.
func (in *Instance) drainFrame(ctx context.Context) (*osp.Result, error) {
	path := "/v1/instances/" + in.id + "/drain"
	req, err := http.NewRequestWithContext(ctx, "POST", in.c.base+path, nil)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	req.Header.Set("Accept", wire.ContentTypeResult)
	resp, err := in.c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("client: POST %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return nil, apiError(resp)
	}
	if ct := resp.Header.Get("Content-Type"); ct != wire.ContentTypeResult {
		return nil, fmt.Errorf("client: POST %s answered %q, want %s", path, ct, wire.ContentTypeResult)
	}
	res, err := wire.ReadResult(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("client: POST %s: %w", path, err)
	}
	return res, nil
}

// Status fetches the instance's lifecycle state and live metrics.
func (in *Instance) Status(ctx context.Context) (*Status, error) {
	var st Status
	if err := in.c.doJSON(ctx, "GET", "/v1/instances/"+in.id, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Remove drains the instance server-side and deletes it from the pool,
// freeing its memory. The handle is dead afterwards.
func (in *Instance) Remove(ctx context.Context) error {
	return in.c.doJSON(ctx, "DELETE", "/v1/instances/"+in.id, nil)
}

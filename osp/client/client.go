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
// server's own listener, or its raw stream port) by default; CodecJSON
// sends them as JSON requests, the shapes curl speaks.
// The drained Result is bit-for-bit identical to a serial osp.Run with
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
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"

	"repro/osp"
)

// Codec selects the ingest wire representation (see WithCodec).
type Codec int

const (
	// CodecBinary — the default — sends binary batch frames over the
	// instance's verdict stream; a server that refuses the stream
	// surfaces the resulting *APIError.
	CodecBinary Codec = iota
	// CodecJSON sends every batch as a JSON request.
	CodecJSON
)

// String returns the flag-friendly codec name.
func (c Codec) String() string {
	if c == CodecJSON {
		return "json"
	}
	return "binary"
}

// Client talks to one admission server. Safe for concurrent use (the
// underlying http.Client is).
type Client struct {
	base       string
	host       string // base URL's host:port, the stream upgrade's dial target
	https      bool
	hc         *http.Client
	codec      Codec
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

// WithCodec picks the ingest wire codec. The default, CodecBinary,
// sends internal/wire's flat batch frames over a verdict stream — the
// zero-allocation path, measured severalfold faster than JSON end to
// end; CodecJSON sends one JSON request per batch, the shapes curl
// speaks.
func WithCodec(codec Codec) Option {
	return func(c *Client) { c.codec = codec }
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

	// tmu serializes binary ingest and Close over the pinned stream,
	// which is a single in-order connection.
	tmu sync.Mutex
	// pinned is the long-lived verdict stream binary ingest opened, nil
	// when none is open (guarded by tmu).
	pinned *Stream
}

// wire shapes (mirroring internal/serve; the contract is the JSON).
type wireElement struct {
	Members  []osp.SetID `json:"members"`
	Capacity int         `json:"capacity"`
}

type registerRequest struct {
	Weights    []float64 `json:"weights"`
	Sizes      []int     `json:"sizes"`
	Seed       uint64    `json:"seed"`
	Shards     int       `json:"shards,omitempty"`
	BatchSize  int       `json:"batch_size,omitempty"`
	QueueDepth int       `json:"queue_depth,omitempty"`
	Policy     string    `json:"policy,omitempty"`
	Label      string    `json:"label,omitempty"`
}

type registerResponse struct {
	ID     string `json:"id"`
	Shards int    `json:"shards"`
	Policy string `json:"policy"`
	State  string `json:"state"`
}

type ingestRequest struct {
	Elements []wireElement `json:"elements"`
}

type ingestResponse struct {
	Verdicts []Verdict `json:"verdicts"`
	Ingested int       `json:"ingested"`
}

type wireResult struct {
	Completed []osp.SetID `json:"completed"`
	Benefit   float64     `json:"benefit"`
	Assigned  []int32     `json:"assigned"`
}

type drainResponse struct {
	Result  wireResult      `json:"result"`
	Metrics MetricsSnapshot `json:"metrics"`
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

// doJSON performs one request; a non-2xx answer decodes into *APIError.
func (c *Client) doJSON(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("client: encode request: %w", err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
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
func (c *Client) Register(ctx context.Context, spec Spec) (*Instance, error) {
	req := registerRequest{
		Weights:    spec.Info.Weights,
		Sizes:      spec.Info.Sizes,
		Seed:       spec.Seed,
		Shards:     spec.Engine.Shards,
		BatchSize:  spec.Engine.BatchSize,
		QueueDepth: spec.Engine.QueueDepth,
		Policy:     spec.Engine.Policy,
		Label:      spec.Label,
	}
	var resp registerResponse
	if err := c.doJSON(ctx, "POST", "/v1/instances", req, &resp); err != nil {
		return nil, err
	}
	return &Instance{c: c, id: resp.ID, shards: resp.Shards, policy: resp.Policy}, nil
}

// Instances lists every instance on the server with live metrics.
func (c *Client) Instances(ctx context.Context) ([]Status, error) {
	var resp listResponse
	if err := c.doJSON(ctx, "GET", "/v1/instances", nil, &resp); err != nil {
		return nil, err
	}
	return resp.Instances, nil
}

// Policies lists the admission policies this server accepts at
// registration, each with the registry's one-line description — the
// discovery call that replaces hardcoding the built-in names.
func (c *Client) Policies(ctx context.Context) ([]PolicyInfo, error) {
	var resp policiesResponse
	if err := c.doJSON(ctx, "GET", "/v1/policies", nil, &resp); err != nil {
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
// The wire representation follows the client's codec (WithCodec): by
// default the batch rides the instance's pinned verdict stream, exactly
// as IngestFunc sends it; under CodecJSON it is one JSON request.
// Either way the verdicts and the eventual drained result are
// bit-for-bit identical — every arm applies one policy state.
//
// With WithRetry configured, transient failures (transport errors, 429,
// 5xx) are retried under the policy's backoff and budget; permanent 4xx
// rejections are returned immediately.
func (in *Instance) Ingest(ctx context.Context, els []osp.Element) ([]Verdict, error) {
	if in.c.codec == CodecJSON {
		var verdicts []Verdict
		err := in.c.withRetry(ctx, func(ctx context.Context) (err error) {
			verdicts, err = in.ingestJSON(ctx, els)
			return err
		})
		if err != nil {
			return nil, err
		}
		return verdicts, nil
	}
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

// Codec reports the arm Ingest and IngestFunc use: "stream" under the
// default CodecBinary, "json" under CodecJSON — so a benchmark or
// loadgen report can name the arm it exercised.
func (in *Instance) Codec() string {
	if in.c.codec == CodecJSON {
		return "json"
	}
	return "stream"
}

// ingestJSON is the JSON arm of Ingest.
func (in *Instance) ingestJSON(ctx context.Context, els []osp.Element) ([]Verdict, error) {
	req := ingestRequest{Elements: make([]wireElement, len(els))}
	for i, el := range els {
		req.Elements[i] = wireElement{Members: el.Members, Capacity: el.Capacity}
	}
	var resp ingestResponse
	if err := in.c.doJSON(ctx, "POST", "/v1/instances/"+in.id+"/elements", req, &resp); err != nil {
		return nil, err
	}
	return resp.Verdicts, nil
}

// Drain closes the stream and returns the final Result — bit-for-bit
// identical to a serial osp.Run with osp.NewHashRandPr under the
// instance's seed over the same elements. The instance's pinned verdict
// stream, if any, is released first: every batch it carried has been
// answered. Idempotent: draining again returns the same Result — which
// is also what makes it safe to retry under WithRetry.
func (in *Instance) Drain(ctx context.Context) (*osp.Result, error) {
	in.tmu.Lock()
	if in.pinned != nil {
		in.dropPinned()
	}
	in.tmu.Unlock()
	var resp drainResponse
	err := in.c.withRetry(ctx, func(ctx context.Context) error {
		return in.c.doJSON(ctx, "POST", "/v1/instances/"+in.id+"/drain", nil, &resp)
	})
	if err != nil {
		return nil, err
	}
	return &osp.Result{
		Completed: resp.Result.Completed,
		Benefit:   resp.Result.Benefit,
		Assigned:  resp.Result.Assigned,
	}, nil
}

// Status fetches the instance's lifecycle state and live metrics.
func (in *Instance) Status(ctx context.Context) (*Status, error) {
	var st Status
	if err := in.c.doJSON(ctx, "GET", "/v1/instances/"+in.id, nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Remove drains the instance server-side and deletes it from the pool,
// freeing its memory. The handle is dead afterwards.
func (in *Instance) Remove(ctx context.Context) error {
	return in.c.doJSON(ctx, "DELETE", "/v1/instances/"+in.id, nil, nil)
}

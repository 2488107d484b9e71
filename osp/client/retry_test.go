package client_test

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultproxy"
	"repro/internal/stream"
	"repro/internal/wire"
	"repro/osp"
	"repro/osp/client"
)

// startProxiedServer runs a real server and a fault proxy in front of
// its HTTP listener; the returned client talks through the proxy.
func startProxiedServer(t *testing.T, opts ...client.Option) (*client.Client, *faultproxy.Proxy) {
	t.Helper()
	srv := osp.NewServer(osp.ServerConfig{})
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	t.Cleanup(func() { srv.Shutdown(context.Background()) }) //nolint:errcheck
	p, err := faultproxy.New(hs.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	c, err := client.New("http://"+p.Addr(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return c, p
}

// TestRetryTransientThenSuccess pins the ride-through: the node drops
// connections for a while (a failover in progress), the retry policy
// keeps the batch alive, the node heals, the batch lands — and the
// drain still matches the serial oracle exactly, proving the retries
// neither lost nor doubled elements.
func TestRetryTransientThenSuccess(t *testing.T) {
	ctx := context.Background()
	c, p := startProxiedServer(t, client.WithRetry(client.RetryPolicy{
		MaxAttempts: 10, BaseBackoff: 25 * time.Millisecond, Budget: 10 * time.Second,
	}))
	const seed = 77
	inst := uniform(t, 25, 600, 4, 3)
	h := registerTwin(t, c, inst, seed)

	half := len(inst.Elements) / 2
	if _, err := h.Ingest(ctx, inst.Elements[:half]); err != nil {
		t.Fatalf("healthy ingest: %v", err)
	}
	// Break the network, heal it while the client is mid-backoff.
	p.Set(faultproxy.Fault{Mode: faultproxy.Drop})
	p.CutConns()
	time.AfterFunc(120*time.Millisecond, func() { p.Set(faultproxy.Fault{Mode: faultproxy.Pass}) })
	if _, err := h.Ingest(ctx, inst.Elements[half:]); err != nil {
		t.Fatalf("ingest through transient fault: %v", err)
	}
	res, err := h.Drain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := osp.Run(inst, osp.NewHashRandPr(seed), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equal(oracle) {
		t.Error("drain after transient-fault retries differs from oracle")
	}
}

// TestRetryBudgetExhausted pins the give-up: a blackholed node (writes
// vanish, replies never come) burns one PerAttempt timeout per try
// until the total Budget expires, and the error says so.
func TestRetryBudgetExhausted(t *testing.T) {
	ctx := context.Background()
	c, p := startProxiedServer(t, client.WithRetry(client.RetryPolicy{
		MaxAttempts: 100,
		BaseBackoff: 10 * time.Millisecond,
		PerAttempt:  80 * time.Millisecond,
		Budget:      400 * time.Millisecond,
	}))
	inst := uniform(t, 10, 100, 3, 4)
	h := registerTwin(t, c, inst, 1)

	p.Set(faultproxy.Fault{Mode: faultproxy.Blackhole})
	start := time.Now()
	_, err := h.Ingest(ctx, inst.Elements[:10])
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("ingest through a blackhole succeeded")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("budget-exhausted error = %v, want context.DeadlineExceeded in the chain", err)
	}
	if elapsed < 350*time.Millisecond || elapsed > 5*time.Second {
		t.Errorf("gave up after %v, want ≈ the 400ms budget", elapsed)
	}
}

// TestRetryNeverResendsAWrittenBatch pins the exactly-once half of the
// retry contract: once an attempt has written its batch frame, a
// PerAttempt timeout ends the call with that error instead of resending.
// The node here answers late, not never — the proxy delays the frame
// past the attempt's deadline, then heals — so it decides the batch
// anyway, and a resend would ingest it a second time. The drain must
// count every element exactly once.
func TestRetryNeverResendsAWrittenBatch(t *testing.T) {
	ctx := context.Background()
	c, p := startProxiedServer(t, client.WithRetry(client.RetryPolicy{
		MaxAttempts: 4,
		BaseBackoff: 200 * time.Millisecond,
		PerAttempt:  100 * time.Millisecond,
		Budget:      10 * time.Second,
	}))
	const seed = 41
	inst := uniform(t, 30, 1200, 4, 12)
	h := registerTwin(t, c, inst, seed)
	half := len(inst.Elements) / 2
	if err := h.IngestFunc(ctx, inst.Elements[:half], nil); err != nil {
		t.Fatalf("healthy batch: %v", err)
	}

	p.Set(faultproxy.Fault{Mode: faultproxy.Delay, Latency: 150 * time.Millisecond})
	time.AfterFunc(120*time.Millisecond, func() { p.Set(faultproxy.Fault{Mode: faultproxy.Pass}) })
	err := h.IngestFunc(ctx, inst.Elements[half:], nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("batch answered after its attempt's deadline: err = %v, want context.DeadlineExceeded", err)
	}

	// The late frame still reaches the node: wait until it is decided.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		st, err := h.Status(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.Metrics.Processed >= uint64(len(inst.Elements)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("node processed %d of %d elements", st.Metrics.Processed, len(inst.Elements))
		}
	}
	res, err := h.Drain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := osp.Run(inst, osp.NewHashRandPr(seed), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equal(oracle) {
		t.Error("drain differs from the serial oracle: the late batch was ingested twice")
	}
}

// TestRetryPermanent4xxNotRetried pins the must-NOT-retry arm: a batch
// the server rejects as malformed is returned immediately — exactly one
// stream opened for it, no backoff burned on a request that can never
// succeed.
func TestRetryPermanent4xxNotRetried(t *testing.T) {
	ctx := context.Background()
	srv := osp.NewServer(osp.ServerConfig{})
	var upgrades atomic.Int32
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/stream" {
			upgrades.Add(1)
		}
		srv.ServeHTTP(w, r)
	}))
	t.Cleanup(hs.Close)
	t.Cleanup(func() { srv.Shutdown(context.Background()) }) //nolint:errcheck
	c, err := client.New(hs.URL,
		client.WithRetry(client.RetryPolicy{MaxAttempts: 6, BaseBackoff: 5 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	inst := uniform(t, 10, 100, 3, 5)
	h := registerTwin(t, c, inst, 2)

	bad := []osp.Element{{Members: []osp.SetID{9999}, Capacity: 1}} // set 9999 does not exist
	_, err = h.Ingest(ctx, bad)
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad batch error = %v, want *APIError 400", err)
	}
	if n := upgrades.Load(); n != 1 {
		t.Fatalf("server saw %d stream upgrades for a permanent 400, want exactly 1 (no retries)", n)
	}
}

// TestRetryMalformedVerdictsNotRetried: a verdict frame that fails to
// decode is final under WithRetry, since the node that sent it decided
// the batch and a resend would ingest it twice. The peer here answers
// one frame that covers only the batch's first element: the call
// returns the frame error after exactly one upgrade, and the callback
// fired for that first element, straight from the attempt.
func TestRetryMalformedVerdictsNotRetried(t *testing.T) {
	ctx := context.Background()
	els := []osp.Element{
		{Members: []osp.SetID{0, 1}, Capacity: 1},
		{Members: []osp.SetID{1}, Capacity: 1},
	}
	var upgrades atomic.Int32
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/instances/i-1":
			w.Write([]byte(`{"id":"i-1","shards":1,"policy":"randpr"}`)) //nolint:errcheck
		case stream.UpgradePath:
			upgrades.Add(1)
			nc, brw, err := http.NewResponseController(w).Hijack()
			if err != nil {
				t.Error(err)
				return
			}
			defer nc.Close()
			brw.WriteString("HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: " + stream.UpgradeToken + "\r\n\r\n") //nolint:errcheck
			if brw.Flush() != nil {
				return
			}
			fc := stream.NewConn(nc, 0)
			answer := func(want, typ byte, payload []byte) bool {
				got, seq, _, err := fc.ReadFrame()
				if err != nil || got != want {
					t.Errorf("peer read frame %c, %v; want %c", got, err, want)
					return false
				}
				fc.WriteFrame(typ, seq, payload) //nolint:errcheck // the client's error is the check
				return fc.Flush() == nil
			}
			// The verdicts carry one mask byte: the first element's, none
			// for the second.
			if answer(stream.FrameHello, stream.FrameAck, stream.AppendAck(nil, 8, "randpr")) &&
				answer(stream.FrameBatch, stream.FrameVerdicts, append(wire.AppendVerdictsHeader(nil, len(els)), 0)) {
				fc.ReadFrame() //nolint:errcheck // hold the connection until the client hangs up
			}
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(hs.Close)
	c, err := client.New(hs.URL,
		client.WithRetry(client.RetryPolicy{MaxAttempts: 4, BaseBackoff: 5 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.Instance(ctx, "i-1")
	if err != nil {
		t.Fatal(err)
	}
	var called []int
	err = h.IngestFunc(ctx, els, func(i int, _ []osp.SetID) { called = append(called, i) })
	if !errors.Is(err, wire.ErrFrame) {
		t.Fatalf("malformed verdict frame: err = %v, want wire.ErrFrame", err)
	}
	if n := upgrades.Load(); n != 1 {
		t.Errorf("peer saw %d stream upgrades for one malformed verdict frame, want exactly 1 (no retries)", n)
	}
	if !slices.Equal(called, []int{0}) {
		t.Errorf("callbacks fired for elements %v, want [0]", called)
	}
}

// TestRetryStreamReconnectCallbackOrdering pins verdict-callback
// semantics across a mid-stream reconnect: the pinned verdict stream is
// cut under the client, the retry re-dials it, and the resent batch's
// callbacks fire exactly once per element, in batch order — then the
// drain proves no element was delivered to the engine twice.
func TestRetryStreamReconnectCallbackOrdering(t *testing.T) {
	ctx := context.Background()
	srv := osp.NewServer(osp.ServerConfig{})
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	t.Cleanup(func() { srv.Shutdown(context.Background()) }) //nolint:errcheck
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go srv.ServeStream(ln) //nolint:errcheck // closed by cleanup
	p, err := faultproxy.New(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })

	c, err := client.New(hs.URL,
		client.WithStreamAddr(p.Addr()),
		client.WithRetry(client.RetryPolicy{MaxAttempts: 8, BaseBackoff: 20 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	const seed = 99
	inst := uniform(t, 30, 800, 4, 6)
	h := registerTwin(t, c, inst, seed)

	half := len(inst.Elements) / 2
	if err := h.IngestFunc(ctx, inst.Elements[:half], nil); err != nil {
		t.Fatalf("first batch: %v", err)
	}
	if n := p.Accepted(); n != 1 {
		t.Fatalf("stream port accepted %d connections for the first batch, want 1", n)
	}

	// Kill the pinned stream between batches — the crashed-node
	// signature — and send the second half through the reconnect.
	if n := p.CutConns(); n == 0 {
		t.Fatal("no pinned stream connection to cut")
	}
	var order []int
	second := inst.Elements[half:]
	err = h.IngestFunc(ctx, second, func(i int, admitted []osp.SetID) {
		order = append(order, i)
	})
	if err != nil {
		t.Fatalf("ingest across reconnect: %v", err)
	}
	if len(order) != len(second) {
		t.Fatalf("got %d callbacks for %d elements — duplicates or drops across the reconnect", len(order), len(second))
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("callback %d fired for element %d, want batch order", i, got)
		}
	}
	if n := p.Accepted(); n < 2 {
		t.Errorf("stream port accepted %d connections, want a re-dial after the cut", n)
	}

	res, err := h.Drain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := osp.Run(inst, osp.NewHashRandPr(seed), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equal(oracle) {
		t.Error("drain after mid-stream reconnect differs from oracle — an element was lost or doubled")
	}
}

// TestEmptyBatchRefusedUnderBothCodecs pins that an empty batch is a
// permanent 400 under both codecs the service speaks, with one message.
// The client refuses it before it reaches the wire: no retry, no dial,
// and the pinned stream survives for the next batch. The server's JSON
// endpoint answers the same status and message the client reports.
func TestEmptyBatchRefusedUnderBothCodecs(t *testing.T) {
	ctx := context.Background()
	const want = "ingest: empty batch"
	t.Run("binary", func(t *testing.T) {
		c, p := startProxiedServer(t, client.WithRetry(client.RetryPolicy{}))
		const seed = 5
		inst := uniform(t, 20, 400, 3, 9)
		h := registerTwin(t, c, inst, seed)
		half := len(inst.Elements) / 2
		if err := h.IngestFunc(ctx, inst.Elements[:half], nil); err != nil {
			t.Fatalf("first batch: %v", err)
		}
		dialed := p.Accepted()

		_, ingestErr := h.Ingest(ctx, []osp.Element{})
		for name, err := range map[string]error{
			"IngestFunc": h.IngestFunc(ctx, nil, nil),
			"Ingest":     ingestErr,
		} {
			var apiErr *client.APIError
			if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest || apiErr.Message != want {
				t.Fatalf("%s of an empty batch = %v, want *APIError 400 %q", name, err, want)
			}
		}
		if n := p.Accepted(); n != dialed {
			t.Fatalf("empty batches dialed %d connections", n-dialed)
		}

		if err := h.IngestFunc(ctx, inst.Elements[half:], nil); err != nil {
			t.Fatalf("batch after the empty ones: %v", err)
		}
		if n := p.Accepted(); n != dialed {
			t.Errorf("batch after the empty ones dialed %d connections, want the pinned one reused", n-dialed)
		}
		res, err := h.Drain(ctx)
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := osp.Run(inst, osp.NewHashRandPr(seed), nil)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Equal(oracle) {
			t.Error("drain differs from the serial oracle")
		}
	})
	t.Run("json", func(t *testing.T) {
		c, p := startProxiedServer(t)
		h := registerTwin(t, c, uniform(t, 5, 20, 2, 1), 1)
		resp, err := http.Post("http://"+p.Addr()+"/v1/instances/"+h.ID()+"/elements",
			"application/json", strings.NewReader(`{"elements":[]}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body struct{ Error string }
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest || body.Error != want {
			t.Fatalf("JSON empty batch = %d %q, want 400 %q", resp.StatusCode, body.Error, want)
		}
	})
}

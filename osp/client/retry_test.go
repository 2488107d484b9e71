package client_test

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultproxy"
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

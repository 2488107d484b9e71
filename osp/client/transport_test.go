package client_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http/httptest"
	"testing"

	"repro/internal/faultproxy"
	"repro/osp"
	"repro/osp/client"
)

// These tests pin the IngestAuto transport contract: with a stream
// address the instance streams over one pinned connection, a failed
// dial is returned rather than hidden behind HTTP, and every arm
// produces verdicts bit-for-bit equal to the serial oracle.

// streamProxy fronts the server's stream listener with a faultproxy, so
// a test can count dials (Accepted) and fail them on demand (Set).
func streamProxy(t *testing.T, srv *osp.Server) *faultproxy.Proxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go srv.ServeStream(ln) //nolint:errcheck // closed by cleanup or Shutdown
	p, err := faultproxy.New(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

// ingestAuto drives a whole instance through IngestAuto in fixed-size
// batches, checking callback order, and returns the per-element admitted
// sets flattened for comparison.
func ingestAuto(t *testing.T, h *client.Instance, inst *osp.Instance, batch int) []string {
	t.Helper()
	ctx := context.Background()
	var got []string
	for off := 0; off < len(inst.Elements); off += batch {
		els := inst.Elements[off:min(off+batch, len(inst.Elements))]
		calls := 0
		err := h.IngestAuto(ctx, els, func(i int, admitted []osp.SetID) {
			if i != calls {
				t.Fatalf("callback order: got element %d, want %d", i, calls)
			}
			calls++
			got = append(got, fmt.Sprint(admitted))
		})
		if err != nil {
			t.Fatal(err)
		}
		if calls != len(els) {
			t.Fatalf("callback ran %d times for %d elements", calls, len(els))
		}
	}
	return got
}

// TestIngestAutoPinsStream is the happy path: with a live stream
// listener, the first IngestAuto dials once, pins the stream transport,
// and every later batch reuses the same connection. Verdicts match an
// HTTP twin and the drain matches the serial oracle.
func TestIngestAutoPinsStream(t *testing.T) {
	ctx := context.Background()
	srv := osp.NewServer(osp.ServerConfig{})
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	t.Cleanup(func() { srv.Shutdown(context.Background()) }) //nolint:errcheck
	// The stream port goes through a proxy so the test can assert the
	// dial count.
	proxy := streamProxy(t, srv)

	const seed = 17
	inst := uniform(t, 35, 1100, 4, 9)
	c0, err := client.New(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	httpH := registerTwin(t, c0, inst, seed)

	c, err := client.New(hs.URL, client.WithStreamAddr(proxy.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	autoH := registerTwin(t, c, inst, seed)
	if got := autoH.Codec(); got != "binary" {
		t.Fatalf("codec before first ingest = %q, want binary", got)
	}

	const batch = 97
	gotAuto := ingestAuto(t, autoH, inst, batch)
	var wantHTTP []string
	for off := 0; off < len(inst.Elements); off += batch {
		vs, err := httpH.Ingest(ctx, inst.Elements[off:min(off+batch, len(inst.Elements))])
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range vs {
			wantHTTP = append(wantHTTP, fmt.Sprint(v.Admitted))
		}
	}
	for i := range wantHTTP {
		if gotAuto[i] != wantHTTP[i] {
			t.Fatalf("element %d: IngestAuto admitted %s, HTTP twin %s", i, gotAuto[i], wantHTTP[i])
		}
	}
	if got := autoH.Codec(); got != "stream" {
		t.Fatalf("codec = %q, want stream", got)
	}
	if n := proxy.Accepted(); n != 1 {
		t.Fatalf("stream port dialed %d times across %d batches, want 1", n, (len(inst.Elements)+batch-1)/batch)
	}
	if err := autoH.Close(); err != nil {
		t.Fatal(err)
	}
	if got := autoH.Codec(); got == "stream" {
		t.Fatalf("codec still %q after Close", got)
	}

	serial, err := osp.Run(inst, osp.NewHashRandPr(seed), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []*client.Instance{httpH, autoH} {
		res, err := h.Drain(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Equal(serial) {
			t.Fatalf("instance %s drained result differs from serial oracle", h.ID())
		}
	}
}

// TestIngestAutoRedialsAfterFailedDial: one failed dial must not pin
// the instance off the stream. The stream port resets the first
// connection, so the first IngestAuto returns the handshake error; once
// the port heals, the next call dials again and streams. The failed
// batch never reached the engine, so resending it keeps the drain equal
// to the serial oracle.
func TestIngestAutoRedialsAfterFailedDial(t *testing.T) {
	ctx := context.Background()
	srv := osp.NewServer(osp.ServerConfig{})
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	t.Cleanup(func() { srv.Shutdown(context.Background()) }) //nolint:errcheck
	proxy := streamProxy(t, srv)
	c, err := client.New(hs.URL, client.WithStreamAddr(proxy.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	const seed = 23
	inst := uniform(t, 25, 700, 3, 5)
	h := registerTwin(t, c, inst, seed)

	const batch = 64
	proxy.Set(faultproxy.Fault{Mode: faultproxy.Reset})
	if err := h.IngestAuto(ctx, inst.Elements[:batch], nil); err == nil {
		t.Fatal("IngestAuto through a resetting stream port succeeded, want the dial error")
	}
	proxy.Set(faultproxy.Fault{Mode: faultproxy.Pass})
	ingestAuto(t, h, inst, batch)
	if got := h.Codec(); got != "stream" {
		t.Fatalf("codec after the port healed = %q, want stream", got)
	}
	if n := proxy.Accepted(); n < 2 {
		t.Fatalf("stream port accepted %d connections, want a re-dial after the failed one", n)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}

	serial, err := osp.Run(inst, osp.NewHashRandPr(seed), nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Drain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equal(serial) {
		t.Fatal("drained result differs from serial oracle after the re-dial")
	}
}

// TestIngestAutoNoStreamAddr pins the degenerate configuration: a client
// built without WithStreamAddr goes straight to HTTP with no dial at
// all, so cluster code can use IngestAuto unconditionally.
func TestIngestAutoNoStreamAddr(t *testing.T) {
	ctx := context.Background()
	c, _ := startServer(t)
	const seed = 7
	inst := uniform(t, 15, 300, 3, 3)
	h := registerTwin(t, c, inst, seed)
	ingestAuto(t, h, inst, 50)
	if got := h.Codec(); got != "binary" {
		t.Fatalf("codec = %q, want binary", got)
	}
	serial, err := osp.Run(inst, osp.NewHashRandPr(seed), nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Drain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equal(serial) {
		t.Fatal("drained result differs from serial oracle")
	}
}

// TestIngestAutoServerRefusalIsAuthoritative: a server that SPEAKS the
// stream protocol but refuses the instance (Error frame) must surface
// as *APIError — a permanent error WithRetry does not repeat — and
// leave no stream open.
func TestIngestAutoServerRefusalIsAuthoritative(t *testing.T) {
	ctx := context.Background()
	c, _ := startStreamServer(t)
	inst := uniform(t, 10, 60, 2, 1)
	h := registerTwin(t, c, inst, 1)
	if err := h.Remove(ctx); err != nil {
		t.Fatal(err)
	}
	err := h.IngestAuto(ctx, inst.Elements[:1], func(int, []osp.SetID) {})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("IngestAuto on removed instance = %v, want APIError", err)
	}
	if got := h.Codec(); got == "stream" {
		t.Fatalf("codec after authoritative refusal = %q, want no stream open", got)
	}
}

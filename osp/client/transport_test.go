package client_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/faultproxy"
	"repro/osp"
	"repro/osp/client"
)

// These tests pin the stream transport behind Ingest and IngestFunc:
// the instance streams over one
// pinned connection — the raw stream listener with WithStreamAddr, an
// HTTP upgrade of the base URL without — a failed dial is returned and
// re-dialed, a blackholed stream honours the caller's context, and
// every entry produces verdicts bit-for-bit equal to the serial oracle.

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

// ingestAuto drives a whole instance through IngestFunc in fixed-size
// batches, checking callback order, and returns the per-element admitted
// sets flattened for comparison.
func ingestAuto(t *testing.T, h *client.Instance, inst *osp.Instance, batch int) []string {
	t.Helper()
	ctx := context.Background()
	var got []string
	for off := 0; off < len(inst.Elements); off += batch {
		els := inst.Elements[off:min(off+batch, len(inst.Elements))]
		calls := 0
		err := h.IngestFunc(ctx, els, func(i int, admitted []osp.SetID) {
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
// listener, the first IngestFunc dials once, pins the stream, and every
// later batch reuses the same connection. Verdicts match a twin that
// streams through the HTTP upgrade, and the drain matches the serial
// oracle.
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
			t.Fatalf("element %d: IngestFunc admitted %s, upgrade twin %s", i, gotAuto[i], wantHTTP[i])
		}
	}
	if n := proxy.Accepted(); n != 1 {
		t.Fatalf("stream port dialed %d times across %d batches, want 1", n, (len(inst.Elements)+batch-1)/batch)
	}
	if err := autoH.Close(); err != nil {
		t.Fatal(err)
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
// connection, so the first IngestFunc returns the handshake error; once
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
	if err := h.IngestFunc(ctx, inst.Elements[:batch], nil); err == nil {
		t.Fatal("IngestFunc through a resetting stream port succeeded, want the dial error")
	}
	proxy.Set(faultproxy.Fault{Mode: faultproxy.Pass})
	ingestAuto(t, h, inst, batch)
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

// TestIngestAutoNoStreamAddr pins the default configuration: a client
// built without WithStreamAddr streams through an HTTP upgrade of its
// base URL — one connection for the whole instance, counted by the
// server's stream metrics — so cluster code can ingest the same way to
// any node.
func TestIngestAutoNoStreamAddr(t *testing.T) {
	ctx := context.Background()
	c, _ := startServer(t)
	const seed = 7
	inst := uniform(t, 15, 300, 3, 3)
	h := registerTwin(t, c, inst, seed)
	ingestAuto(t, h, inst, 50)
	assertStreamConns(t, c, 1)
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

// assertStreamConns checks the server's lifetime stream connection
// count through its /metrics.
func assertStreamConns(t *testing.T, c *client.Client, want int) {
	t.Helper()
	text, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if line := fmt.Sprintf("osp_stream_connections_total %d\n", want); !strings.Contains(text, line) {
		t.Fatalf("server stream connections: want %q in /metrics", strings.TrimSpace(line))
	}
}

// TestIngestAutoServerRefusalIsAuthoritative: a server that SPEAKS the
// stream protocol but refuses the instance (a 404 Error frame) must
// surface as *APIError — a permanent error WithRetry does not repeat —
// on both stream entries.
func TestIngestAutoServerRefusalIsAuthoritative(t *testing.T) {
	ctx := context.Background()
	inst := uniform(t, 10, 60, 2, 1)
	cAddr, _ := startStreamServer(t)
	cUpgrade, _ := startServer(t)
	for _, c := range []*client.Client{cAddr, cUpgrade} {
		h := registerTwin(t, c, inst, 1)
		if err := h.Remove(ctx); err != nil {
			t.Fatal(err)
		}
		err := h.IngestFunc(ctx, inst.Elements[:1], func(int, []osp.SetID) {})
		if !isStatus(err, http.StatusNotFound) {
			t.Fatalf("IngestFunc on removed instance = %v, want 404 APIError", err)
		}
	}
}

// TestStreamBlackholeHonorsContext: a peer that blackholes an
// established stream must not hang the call past its context. The
// stream is pinned through a proxy — in front of the raw stream
// listener, or of the HTTP listener it upgrades — the proxy then
// swallows everything, and a 200 ms context ends the call with
// context.DeadlineExceeded well inside a second; once the proxy passes
// again, the next call re-dials and the drain is still exact (the
// swallowed batch never reached the server).
func TestStreamBlackholeHonorsContext(t *testing.T) {
	t.Run("stream-addr", func(t *testing.T) {
		srv := osp.NewServer(osp.ServerConfig{})
		hs := httptest.NewServer(srv)
		t.Cleanup(hs.Close)
		t.Cleanup(func() { srv.Shutdown(context.Background()) }) //nolint:errcheck
		p := streamProxy(t, srv)
		c, err := client.New(hs.URL, client.WithStreamAddr(p.Addr()))
		if err != nil {
			t.Fatal(err)
		}
		blackholeRoundTrip(t, c, p)
	})
	t.Run("upgrade", func(t *testing.T) {
		c, p := startProxiedServer(t)
		blackholeRoundTrip(t, c, p)
	})
}

func blackholeRoundTrip(t *testing.T, c *client.Client, p *faultproxy.Proxy) {
	const seed = 29
	inst := uniform(t, 20, 400, 3, 7)
	h := registerTwin(t, c, inst, seed)
	if err := h.IngestFunc(context.Background(), inst.Elements[:100], nil); err != nil {
		t.Fatal(err)
	}

	p.Set(faultproxy.Fault{Mode: faultproxy.Blackhole})
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := h.IngestFunc(ctx, inst.Elements[100:200], nil)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("ingest into a blackhole = %v, want context.DeadlineExceeded", err)
	}
	if elapsed > 900*time.Millisecond {
		t.Fatalf("ingest into a blackhole returned after %v, want ~200ms", elapsed)
	}

	p.Set(faultproxy.Fault{Mode: faultproxy.Pass})
	dials := p.Accepted()
	if err := h.IngestFunc(context.Background(), inst.Elements[100:], nil); err != nil {
		t.Fatalf("ingest after the proxy healed: %v", err)
	}
	if p.Accepted() == dials {
		t.Fatal("the next call reused the blackholed stream instead of re-dialing")
	}
	res, err := h.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	serial, err := osp.Run(inst, osp.NewHashRandPr(seed), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equal(serial) {
		t.Fatal("drained result differs from serial oracle after the blackhole")
	}
}

package client_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/osp"
	"repro/osp/client"
)

// startStreamServer runs the full service with BOTH transports live: the
// HTTP API on an httptest listener and the stream listener on its own
// loopback port, wired into one client via WithStreamAddr.
func startStreamServer(t *testing.T) (*client.Client, *osp.Server) {
	t.Helper()
	srv := osp.NewServer(osp.ServerConfig{})
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go srv.ServeStream(ln)                                   //nolint:errcheck // closed by cleanup or Shutdown
	t.Cleanup(func() { srv.Shutdown(context.Background()) }) //nolint:errcheck
	c, err := client.New(hs.URL, client.WithStreamAddr(ln.Addr().String()))
	if err != nil {
		t.Fatal(err)
	}
	return c, srv
}

func registerTwin(t *testing.T, c *client.Client, inst *osp.Instance, seed uint64) *client.Instance {
	t.Helper()
	h, err := c.Register(context.Background(), client.Spec{
		Info: osp.InfoOf(inst), Seed: seed,
		Engine: osp.EngineConfig{Shards: 2, BatchSize: 32},
	})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestStreamMatchesHTTPAndOracle is the client-side equivalence anchor:
// the same workload pipelined by hand over the raw stream listener and
// sent through Ingest over the HTTP listener's upgrade, on twin
// instances (same seed), produces bit-for-bit identical per-element
// verdicts, and both drain to the serial oracle's result.
func TestStreamMatchesHTTPAndOracle(t *testing.T) {
	ctx := context.Background()
	c, srv := startStreamServer(t)
	const seed = 41
	inst := uniform(t, 40, 1200, 4, 7)
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	cHTTP, err := client.New(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	httpH := registerTwin(t, cHTTP, inst, seed)
	streamH := registerTwin(t, c, inst, seed)

	st, err := streamH.OpenStream(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Window() < 1 {
		t.Fatalf("window = %d", st.Window())
	}
	if st.Policy() != osp.DefaultPolicy {
		t.Fatalf("stream policy = %q, want %q", st.Policy(), osp.DefaultPolicy)
	}

	// The classic pipeline dance: keep up to 4 batches in flight, odd
	// batch size so verdict masks pad mid-byte.
	const batch = 77
	type sent struct{ off int }
	var queue []sent
	collect := func() {
		t.Helper()
		s := queue[0]
		queue = queue[1:]
		els := inst.Elements[s.off:min(s.off+batch, len(inst.Elements))]
		want, err := httpH.Ingest(ctx, els)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Recv(func(i int, admitted []osp.SetID) {
			if fmt.Sprint(admitted) != fmt.Sprint(want[i].Admitted) {
				t.Fatalf("element %d: stream admitted %v, http %v", s.off+i, admitted, want[i].Admitted)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	for off := 0; off < len(inst.Elements); off += batch {
		if len(queue) == 4 {
			collect()
		}
		if err := st.Send(inst.Elements[off:min(off+batch, len(inst.Elements))]); err != nil {
			t.Fatal(err)
		}
		queue = append(queue, sent{off})
	}
	if err := st.CloseSend(); err != nil {
		t.Fatal(err)
	}
	for len(queue) > 0 {
		collect()
	}
	if err := st.Recv(func(int, []osp.SetID) {}); err != io.EOF {
		t.Fatalf("Recv after fin = %v, want io.EOF", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	serial, err := osp.Run(inst, osp.NewHashRandPr(seed), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []*client.Instance{httpH, streamH} {
		res, err := h.Drain(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Equal(serial) {
			t.Fatalf("instance %s drained result differs from serial oracle", h.ID())
		}
	}
}

// TestStreamWindowBackpressure pins the flow-control contract: Send
// fails with ErrWindowFull at exactly Window unanswered batches and
// succeeds again after one Recv frees a slot.
func TestStreamWindowBackpressure(t *testing.T) {
	ctx := context.Background()
	c, _ := startStreamServer(t)
	inst := uniform(t, 20, 400, 3, 5)
	h := registerTwin(t, c, inst, 3)
	st, err := h.OpenStream(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	for k := 0; k < st.Window(); k++ {
		if err := st.Send(inst.Elements[k : k+1]); err != nil {
			t.Fatalf("send %d/%d: %v", k, st.Window(), err)
		}
	}
	if st.Outstanding() != st.Window() {
		t.Fatalf("outstanding = %d, want %d", st.Outstanding(), st.Window())
	}
	if err := st.Send(inst.Elements[:1]); !errors.Is(err, client.ErrWindowFull) {
		t.Fatalf("send past window = %v, want ErrWindowFull", err)
	}
	if err := st.Recv(func(int, []osp.SetID) {}); err != nil {
		t.Fatal(err)
	}
	if err := st.Send(inst.Elements[:1]); err != nil {
		t.Fatalf("send after recv: %v", err)
	}
	for st.Outstanding() > 0 {
		if err := st.Recv(func(int, []osp.SetID) {}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.CloseSend(); err != nil {
		t.Fatal(err)
	}
	if err := st.Send(inst.Elements[:1]); err == nil {
		t.Fatal("Send after CloseSend succeeded")
	}
	if err := st.Recv(func(int, []osp.SetID) {}); err != io.EOF {
		t.Fatalf("final Recv = %v, want io.EOF", err)
	}
}

// TestStreamOpenErrors covers the handshake failure modes: a server
// without the upgrade answers 404, and an instance the server has never
// heard of is a 404 Error frame on either entry — all as *APIError.
func TestStreamOpenErrors(t *testing.T) {
	ctx := context.Background()
	inst := uniform(t, 10, 50, 2, 1)
	legacy := startLegacyServer(t) // no GET /v1/stream
	h := registerTwin(t, legacy, inst, 1)
	if _, err := h.OpenStream(ctx); !isStatus(err, http.StatusNotFound) {
		t.Fatalf("OpenStream against a server without the upgrade = %v, want 404 APIError", err)
	}

	cAddr, _ := startStreamServer(t)
	cUpgrade, _ := startServer(t)
	for _, c := range []*client.Client{cAddr, cUpgrade} {
		h := registerTwin(t, c, inst, 1)
		if err := h.Remove(ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := h.OpenStream(ctx); !isStatus(err, http.StatusNotFound) {
			t.Fatalf("OpenStream on removed instance = %v, want 404 APIError", err)
		}
	}
}

// TestIngestFuncMatchesIngest checks the callback ingest arm against
// the materializing one on twin instances: both ride the verdict stream,
// and Ingest rebuilds []Verdict from it. The body runs as subtest
// "binary", after the client's one wire format.
func TestIngestFuncMatchesIngest(t *testing.T) {
	t.Run("binary", testIngestFuncMatchesIngest)
}

func testIngestFuncMatchesIngest(t *testing.T) {
	ctx := context.Background()
	c, _ := startServer(t)
	const seed = 13
	inst := uniform(t, 30, 900, 3, 11)
	ingestH := registerTwin(t, c, inst, seed)
	funcH := registerTwin(t, c, inst, seed)

	const batch = 111
	for off := 0; off < len(inst.Elements); off += batch {
		els := inst.Elements[off:min(off+batch, len(inst.Elements))]
		want, err := ingestH.Ingest(ctx, els)
		if err != nil {
			t.Fatal(err)
		}
		calls := 0
		err = funcH.IngestFunc(ctx, els, func(i int, admitted []osp.SetID) {
			if i != calls {
				t.Fatalf("callback order: got element %d, want %d", i, calls)
			}
			calls++
			if fmt.Sprint(admitted) != fmt.Sprint(want[i].Admitted) {
				t.Fatalf("element %d: IngestFunc admitted %v, Ingest %v", off+i, admitted, want[i].Admitted)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if calls != len(els) {
			t.Fatalf("callback ran %d times for %d elements", calls, len(els))
		}
	}

	serial, err := osp.Run(inst, osp.NewHashRandPr(seed), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []*client.Instance{ingestH, funcH} {
		res, err := h.Drain(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Equal(serial) {
			t.Fatalf("instance %s drained result differs from serial oracle", h.ID())
		}
	}
}

// TestIngestShares checks the multi-instance ingest: two instances each
// take half of every batch, every element is called back once with the
// verdict a single instance gives it, share 0's callbacks all run before
// share 1's, and an empty share or a second share on one instance fails
// alone. The body runs as subtest "binary", after the client's one wire
// format.
func TestIngestShares(t *testing.T) {
	t.Run("binary", testIngestShares)
}

func testIngestShares(t *testing.T) {
	ctx := context.Background()
	c, _ := startServer(t)
	const seed = 19
	inst := uniform(t, 30, 900, 3, 23)
	ref := registerTwin(t, c, inst, seed)
	a, b := registerTwin(t, c, inst, seed), registerTwin(t, c, inst, seed)

	const batch = 150
	for off := 0; off < len(inst.Elements); off += batch {
		els := inst.Elements[off:min(off+batch, len(inst.Elements))]
		want, err := ref.Ingest(ctx, els)
		if err != nil {
			t.Fatal(err)
		}
		half := len(els) / 2
		next := 0 // index into els of the next expected callback
		check := func(base int) func(int, []osp.SetID) {
			return func(i int, admitted []osp.SetID) {
				if base+i != next {
					t.Fatalf("callback for element %d, want %d", base+i, next)
				}
				next++
				if fmt.Sprint(admitted) != fmt.Sprint(want[base+i].Admitted) {
					t.Fatalf("element %d: admitted %v, single instance %v", off+base+i, admitted, want[base+i].Admitted)
				}
			}
		}
		shares := []client.Share{
			{In: a, Els: els[:half], Fn: check(0)},
			{In: b, Els: els[half:], Fn: check(half)},
			{In: b, Els: els},
			{In: ref, Els: els[:0]},
		}
		client.IngestShares(ctx, shares)
		for k, s := range shares[:2] {
			if s.Err != nil {
				t.Fatalf("share %d: %v", k, s.Err)
			}
		}
		if next != len(els) {
			t.Fatalf("%d callbacks for %d elements", next, len(els))
		}
		if shares[2].Err == nil {
			t.Fatal("a second share on one instance was accepted")
		}
		if !isStatus(shares[3].Err, http.StatusBadRequest) {
			t.Fatalf("empty share: %v, want a 400", shares[3].Err)
		}
	}
}

// BenchmarkStreamPipelined measures the full client+server stream round
// trip on loopback TCP — the profiling entry point for the transport
// (`go test -bench StreamPipelined -cpuprofile cpu.out ./osp/client`).
func BenchmarkStreamPipelined(b *testing.B) {
	srv := osp.NewServer(osp.ServerConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	go srv.ServeStream(ln)                   //nolint:errcheck
	defer srv.Shutdown(context.Background()) //nolint:errcheck
	hs := httptest.NewServer(srv)
	defer hs.Close()
	c, err := client.New(hs.URL, client.WithStreamAddr(ln.Addr().String()))
	if err != nil {
		b.Fatal(err)
	}
	inst, err := osp.RandomInstance(osp.UniformConfig{M: 8192, N: 65536, Load: 12, MinLoad: 4, Capacity: 4},
		rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	h, err := c.Register(ctx, client.Spec{Info: osp.InfoOf(inst), Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	st, err := h.OpenStream(ctx)
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()

	const batch = 4096
	discard := func(int, []osp.SetID) {}
	depth := min(8, st.Window())
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for off := 0; off < len(inst.Elements); off += batch {
			if st.Outstanding() == depth {
				if err := st.Recv(discard); err != nil {
					b.Fatal(err)
				}
			}
			if err := st.Send(inst.Elements[off:min(off+batch, len(inst.Elements))]); err != nil {
				b.Fatal(err)
			}
		}
	}
	for st.Outstanding() > 0 {
		if err := st.Recv(discard); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(inst.Elements)), "ns/element")
}

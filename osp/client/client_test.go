package client_test

import (
	"context"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/osp"
	"repro/osp/client"
)

// startServer runs a full admission service on a loopback listener.
func startServer(t *testing.T) (*client.Client, *osp.Server) {
	t.Helper()
	srv := osp.NewServer(osp.ServerConfig{})
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	t.Cleanup(func() { srv.Shutdown(context.Background()) }) //nolint:errcheck
	c, err := client.New(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	return c, srv
}

// uniform builds a deterministic test workload.
func uniform(t *testing.T, m, n, load int, seed int64) *osp.Instance {
	t.Helper()
	inst, err := osp.RandomInstance(osp.UniformConfig{M: m, N: n, Load: load, Capacity: 2},
		rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// TestClientRoundTrip pins the whole client protocol against a live
// server: register, batched ingest with verdicts, status, drain matching
// the serial oracle bit-for-bit, metrics text, list, remove.
func TestClientRoundTrip(t *testing.T) {
	ctx := context.Background()
	c, _ := startServer(t)
	const seed = 17
	inst := uniform(t, 30, 600, 3, 3)

	if err := c.Health(ctx); err != nil {
		t.Fatalf("health: %v", err)
	}

	h, err := c.Register(ctx, client.Spec{
		Info: osp.InfoOf(inst), Seed: seed,
		Engine: osp.EngineConfig{Shards: 2, BatchSize: 16},
		Label:  "round-trip",
	})
	if err != nil {
		t.Fatal(err)
	}
	if h.ID() == "" || h.Shards() != 2 {
		t.Fatalf("handle = id %q, %d shards", h.ID(), h.Shards())
	}
	if h.Policy() != osp.DefaultPolicy {
		t.Fatalf("handle policy = %q, want the resolved default %q", h.Policy(), osp.DefaultPolicy)
	}

	var admitted, dropped int
	const batch = 64
	for off := 0; off < len(inst.Elements); off += batch {
		end := min(off+batch, len(inst.Elements))
		verdicts, err := h.Ingest(ctx, inst.Elements[off:end])
		if err != nil {
			t.Fatal(err)
		}
		if len(verdicts) != end-off {
			t.Fatalf("got %d verdicts for a batch of %d", len(verdicts), end-off)
		}
		for i, v := range verdicts {
			el := inst.Elements[off+i]
			if len(v.Admitted) > el.Capacity {
				t.Fatalf("element %d admitted to %d sets, capacity %d", off+i, len(v.Admitted), el.Capacity)
			}
			admitted += len(v.Admitted)
			dropped += len(v.Dropped)
		}
	}

	st, err := h.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "streaming" && st.State != "idle" {
		t.Errorf("mid-stream state = %q", st.State)
	}
	if st.Label != "round-trip" || st.Seed != seed || st.Sets != inst.NumSets() {
		t.Errorf("status = %+v", st)
	}
	if st.Policy != osp.DefaultPolicy {
		t.Errorf("status policy = %q, want %q", st.Policy, osp.DefaultPolicy)
	}

	res, err := h.Drain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := osp.Run(inst, osp.NewHashRandPr(seed), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equal(serial) {
		t.Fatalf("drained result differs from serial oracle: %v vs %v", res.Benefit, serial.Benefit)
	}
	// The verdict stream and the drained result agree in aggregate.
	var assigned int
	for _, cnt := range res.Assigned {
		assigned += int(cnt)
	}
	if assigned != admitted {
		t.Errorf("verdicts admitted %d memberships, result assigns %d", admitted, assigned)
	}

	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{
		`osp_engine_processed_elements_total{instance="` + h.ID() + `",label="round-trip"}`,
		`osp_instances{state="drained"} 1`,
	} {
		if !strings.Contains(text, frag) {
			t.Errorf("metrics missing %q", frag)
		}
	}

	list, err := c.Instances(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != h.ID() || list[0].State != "drained" {
		t.Errorf("list = %+v", list)
	}

	if err := h.Remove(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Status(ctx); !isStatus(err, 404) {
		t.Errorf("status after remove = %v, want 404 APIError", err)
	}
}

// TestClientPolicySelection registers each non-default built-in policy
// over the wire, checks the resolved name round-trips through handle and
// status, and verifies the drained result against that policy's serial
// oracle end to end.
func TestClientPolicySelection(t *testing.T) {
	ctx := context.Background()
	c, _ := startServer(t)
	const seed = 23
	inst := uniform(t, 25, 500, 3, 5)

	for _, name := range osp.PolicyNames() {
		h, err := c.Register(ctx, client.Spec{
			Info: osp.InfoOf(inst), Seed: seed,
			Engine: osp.EngineConfig{Shards: 2, BatchSize: 16, Policy: name},
			Label:  name,
		})
		if err != nil {
			t.Fatalf("%s: register: %v", name, err)
		}
		if h.Policy() != name {
			t.Errorf("%s: handle policy = %q", name, h.Policy())
		}
		if _, err := h.Ingest(ctx, inst.Elements); err != nil {
			t.Fatalf("%s: ingest: %v", name, err)
		}
		res, err := h.Drain(ctx)
		if err != nil {
			t.Fatalf("%s: drain: %v", name, err)
		}
		alg, err := osp.NewPolicyAlgorithm(name, seed)
		if err != nil {
			t.Fatal(err)
		}
		serial, err := osp.Run(inst, alg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Equal(serial) {
			t.Errorf("%s: drained result differs from serial oracle (%v vs %v)",
				name, res.Benefit, serial.Benefit)
		}
	}

	// Unknown policy → 400 with the registered names in the message.
	_, err := c.Register(ctx, client.Spec{
		Info: osp.InfoOf(inst), Engine: osp.EngineConfig{Policy: "bogus"},
	})
	if !isStatus(err, 400) {
		t.Errorf("bogus policy register = %v, want 400 APIError", err)
	}
	var apiErr *client.APIError
	if errors.As(err, &apiErr) && !strings.Contains(apiErr.Message, osp.DefaultPolicy) {
		t.Errorf("400 body should list registered policies: %s", apiErr.Message)
	}
}

// TestClientErrors pins the typed error surface.
func TestClientErrors(t *testing.T) {
	ctx := context.Background()
	c, _ := startServer(t)

	if _, err := client.New("not a url\x00"); err == nil {
		t.Error("New accepted a bad URL")
	}
	if _, err := client.New("ftp://host"); err == nil {
		t.Error("New accepted a non-http scheme")
	}

	// Register with no sets → 400.
	if _, err := c.Register(ctx, client.Spec{}); !isStatus(err, 400) {
		t.Errorf("empty register = %v, want 400 APIError", err)
	}

	inst := uniform(t, 5, 20, 2, 1)
	h, err := c.Register(ctx, client.Spec{Info: osp.InfoOf(inst), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	// Invalid element → 400, batch atomic.
	bad := []osp.Element{{Members: []osp.SetID{99}, Capacity: 1}}
	if _, err := h.Ingest(ctx, bad); !isStatus(err, 400) {
		t.Errorf("bad ingest = %v, want 400 APIError", err)
	}

	// Ingest after drain → 409.
	if _, err := h.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Ingest(ctx, inst.Elements[:1]); !isStatus(err, 409) {
		t.Errorf("ingest after drain = %v, want 409 APIError", err)
	}

	// Error text is surfaced.
	var apiErr *client.APIError
	_, err = h.Ingest(ctx, inst.Elements[:1])
	if !errors.As(err, &apiErr) || apiErr.Message == "" || !strings.Contains(apiErr.Error(), "409") {
		t.Errorf("APIError not descriptive: %v", err)
	}
}

// isStatus reports whether err is an *client.APIError with the given
// HTTP status.
func isStatus(err error, code int) bool {
	var apiErr *client.APIError
	return errors.As(err, &apiErr) && apiErr.StatusCode == code
}

// startLegacyServer emulates a server without the stream upgrade:
// GET /v1/stream is answered 404 before the real handler sees it.
func startLegacyServer(t *testing.T) *client.Client {
	t.Helper()
	srv := osp.NewServer(osp.ServerConfig{})
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/stream" {
			http.NotFound(w, r)
			return
		}
		srv.ServeHTTP(w, r)
	}))
	t.Cleanup(hs.Close)
	t.Cleanup(func() { srv.Shutdown(context.Background()) }) //nolint:errcheck
	c, err := client.New(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// ingestAll streams the whole instance in batches and sums the verdict
// memberships.
func ingestAll(ctx context.Context, t *testing.T, h *client.Instance, inst *osp.Instance, batch int) (admitted, dropped int) {
	t.Helper()
	for off := 0; off < len(inst.Elements); off += batch {
		end := min(off+batch, len(inst.Elements))
		verdicts, err := h.Ingest(ctx, inst.Elements[off:end])
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range verdicts {
			admitted += len(v.Admitted)
			dropped += len(v.Dropped)
		}
	}
	return admitted, dropped
}

// TestStreamEntriesEquivalence is the client-side contract across the
// stream's entries: the same stream ingested over the raw listener, through the
// HTTP upgrade and through the upgrade of an https listener (the
// http.Client's TLS configuration carries over) produces identical
// verdict aggregates and bit-for-bit identical drained results, all
// equal to the serial oracle.
func TestStreamEntriesEquivalence(t *testing.T) {
	ctx := context.Background()
	const seed = 23
	inst := uniform(t, 40, 2000, 5, 8)
	serial, err := osp.Run(inst, osp.NewHashRandPr(seed), nil)
	if err != nil {
		t.Fatal(err)
	}

	cAddr, _ := startStreamServer(t)
	cUpgrade, _ := startServer(t)
	srv := osp.NewServer(osp.ServerConfig{})
	hs := httptest.NewTLSServer(srv)
	t.Cleanup(hs.Close)
	t.Cleanup(func() { srv.Shutdown(context.Background()) }) //nolint:errcheck
	cTLS, err := client.New(hs.URL, client.WithHTTPClient(hs.Client()))
	if err != nil {
		t.Fatal(err)
	}
	var admits []int
	for _, arm := range []struct {
		name string
		c    *client.Client
	}{{"stream-addr", cAddr}, {"upgrade", cUpgrade}, {"upgrade-tls", cTLS}} {
		h, err := arm.c.Register(ctx, client.Spec{Info: osp.InfoOf(inst), Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		adm, _ := ingestAll(ctx, t, h, inst, 170)
		admits = append(admits, adm)
		res, err := h.Drain(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Equal(serial) {
			t.Errorf("%s: drained result differs from the serial oracle", arm.name)
		}
	}
	for _, a := range admits[1:] {
		if a != admits[0] {
			t.Errorf("admitted memberships differ across arms (stream-addr, upgrade, upgrade-tls): %v", admits)
		}
	}
}

// TestControlPlaneFrames pins what the client sends to register and
// drain — a snapshot frame, and an Accept for the result frame — and
// that a handle reattached by Client.Instance, which holds no Info,
// drains the result frame to the oracle.
func TestControlPlaneFrames(t *testing.T) {
	ctx := context.Background()
	srv := osp.NewServer(osp.ServerConfig{})
	var mu sync.Mutex
	var last string // content type of the last register, Accept of the last drain
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		switch {
		case r.URL.Path == "/v1/instances" && r.Method == "POST":
			last = r.Header.Get("Content-Type")
		case strings.HasSuffix(r.URL.Path, "/drain"):
			last = r.Header.Get("Accept")
		}
		mu.Unlock()
		srv.ServeHTTP(w, r)
	}))
	t.Cleanup(hs.Close)
	t.Cleanup(func() { srv.Shutdown(context.Background()) }) //nolint:errcheck
	seen := func() string { mu.Lock(); defer mu.Unlock(); return last }
	c, err := client.New(hs.URL)
	if err != nil {
		t.Fatal(err)
	}

	const seed = 23
	inst := uniform(t, 40, 800, 3, 8)
	serial, err := osp.Run(inst, osp.NewHashRandPr(seed), nil)
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.Register(ctx, client.Spec{Info: osp.InfoOf(inst), Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if got := seen(); got != "application/x-osp-snapshot" {
		t.Errorf("register sent Content-Type %q, want application/x-osp-snapshot", got)
	}
	if _, err := h.Ingest(ctx, inst.Elements); err != nil {
		t.Fatal(err)
	}
	dh, err := c.Instance(ctx, h.ID())
	if err != nil {
		t.Fatal(err)
	}
	res, err := dh.Drain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := seen(); got != "application/x-osp-result" {
		t.Errorf("drain sent Accept %q, want application/x-osp-result", got)
	}
	if !res.Equal(serial) {
		t.Error("drain through a reattached handle differs from the serial oracle")
	}

	// A frame cannot carry arrays of different lengths; the client says
	// so instead of sending one.
	bad := client.Spec{Info: osp.Info{Weights: []float64{1}, Sizes: []int{1, 2}}}
	if _, err := c.Register(ctx, bad); err == nil || !strings.Contains(err.Error(), "1 weights but 2 sizes") {
		t.Errorf("mismatched register = %v", err)
	}
}

// TestStreamUpgradeRefusalSurfaces: a server without the stream upgrade
// is an error, not a silent downgrade to JSON.
func TestStreamUpgradeRefusalSurfaces(t *testing.T) {
	ctx := context.Background()
	inst := uniform(t, 10, 50, 3, 4)
	c := startLegacyServer(t)
	h, err := c.Register(ctx, client.Spec{Info: osp.InfoOf(inst), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Ingest(ctx, inst.Elements[:10]); !isStatus(err, http.StatusNotFound) {
		t.Errorf("ingest against a server without the upgrade: err = %v, want 404 APIError", err)
	}
}

// TestStreamInvalidBatchStays400: a genuinely invalid batch over the
// stream comes back as a 400 *APIError — the stream's Error frame ends
// that stream — and the next call re-dials and flows.
func TestStreamInvalidBatchStays400(t *testing.T) {
	ctx := context.Background()
	inst := uniform(t, 10, 50, 3, 4)
	c, _ := startServer(t)
	h, err := c.Register(ctx, client.Spec{Info: osp.InfoOf(inst), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	bad := []osp.Element{{Members: []osp.SetID{42}, Capacity: 1}} // out of range
	if _, err := h.Ingest(ctx, bad); !isStatus(err, http.StatusBadRequest) {
		t.Errorf("invalid batch: err = %v, want 400 APIError", err)
	}
	if _, err := h.Ingest(ctx, inst.Elements[:10]); err != nil {
		t.Errorf("valid batch after a 400: %v", err)
	}
	assertStreamConns(t, c, 2)
}

// TestClientPolicies covers the discovery endpoint through the client.
func TestClientPolicies(t *testing.T) {
	ctx := context.Background()
	c, _ := startServer(t)
	infos, err := c.Policies(ctx)
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, info := range infos {
		if info.Description == "" {
			t.Errorf("policy %q has no description", info.Name)
		}
		found[info.Name] = true
	}
	for _, name := range osp.PolicyNames() {
		if !found[name] {
			t.Errorf("registered policy %q missing from Policies()", name)
		}
	}
}

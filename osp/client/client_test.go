package client_test

import (
	"context"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
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

// startServerWith is startServer with client options.
func startServerWith(t *testing.T, opts ...client.Option) (*client.Client, *osp.Server) {
	t.Helper()
	srv := osp.NewServer(osp.ServerConfig{})
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	t.Cleanup(func() { srv.Shutdown(context.Background()) }) //nolint:errcheck
	c, err := client.New(hs.URL, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return c, srv
}

// startLegacyServer emulates a server without the stream upgrade:
// GET /v1/stream is answered 404 before the real handler sees it.
func startLegacyServer(t *testing.T, opts ...client.Option) *client.Client {
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
	c, err := client.New(hs.URL, opts...)
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

// TestCodecEquivalence is the client-side codec contract: the same
// stream ingested over JSON, over the stream on the raw listener, over
// the stream through the HTTP upgrade and over the upgrade of an https
// listener (the http.Client's TLS configuration carries over) produces
// identical verdict aggregates and bit-for-bit identical drained
// results, all equal to the serial oracle.
func TestCodecEquivalence(t *testing.T) {
	ctx := context.Background()
	const seed = 23
	inst := uniform(t, 40, 2000, 5, 8)
	serial, err := osp.Run(inst, osp.NewHashRandPr(seed), nil)
	if err != nil {
		t.Fatal(err)
	}

	cJSON, _ := startServerWith(t, client.WithCodec(client.CodecJSON))
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
		name, codec string
		c           *client.Client
	}{{"json", "json", cJSON}, {"stream-addr", "stream", cAddr}, {"upgrade", "stream", cUpgrade}, {"upgrade-tls", "stream", cTLS}} {
		h, err := arm.c.Register(ctx, client.Spec{Info: osp.InfoOf(inst), Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if got := h.Codec(); got != arm.codec {
			t.Errorf("%s: Codec() = %q, want %q", arm.name, got, arm.codec)
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
			t.Errorf("admitted memberships differ across arms (json, stream-addr, upgrade, upgrade-tls): %v", admits)
		}
	}
}

// TestDefaultCodecIsBinary: a client built without WithCodec ingests
// binary frames over the verdict stream from its first batch.
func TestDefaultCodecIsBinary(t *testing.T) {
	ctx := context.Background()
	inst := uniform(t, 20, 200, 3, 5)
	c, _ := startServer(t)
	h, err := c.Register(ctx, client.Spec{Info: osp.InfoOf(inst), Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Codec(); got != "stream" {
		t.Errorf("Codec() = %q, want stream", got)
	}
	if _, err := h.Ingest(ctx, inst.Elements[:50]); err != nil {
		t.Fatal(err)
	}
	assertStreamConns(t, c, 1)
}

// TestCodecBinaryForcedSurfacesRejection: with CodecBinary — the
// default, here also set explicitly — a server without the stream
// upgrade is an error, not a silent downgrade to JSON.
func TestCodecBinaryForcedSurfacesRejection(t *testing.T) {
	ctx := context.Background()
	inst := uniform(t, 10, 50, 3, 4)
	c := startLegacyServer(t, client.WithCodec(client.CodecBinary))
	h, err := c.Register(ctx, client.Spec{Info: osp.InfoOf(inst), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Ingest(ctx, inst.Elements[:10]); !isStatus(err, http.StatusNotFound) {
		t.Errorf("forced binary against a legacy server: err = %v, want 404 APIError", err)
	}
}

// TestDefaultCodecInvalidBatchStays400: a genuinely invalid batch over
// the default codec comes back as a 400 *APIError — the stream's Error
// frame ends that stream — and the next call re-dials and flows.
func TestDefaultCodecInvalidBatchStays400(t *testing.T) {
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

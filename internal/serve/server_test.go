package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/hashpr"
	"repro/internal/setsystem"
	"repro/internal/workload"
)

// do runs one request through the server and decodes the JSON response
// into out (skipped when out is nil).
func do(t *testing.T, s *Server, method, path string, body, out any) *httptest.ResponseRecorder {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	} else {
		rd = bytes.NewReader(nil)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if out != nil && rec.Code < 300 {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: bad response JSON %q: %v", method, path, rec.Body.String(), err)
		}
	}
	return rec
}

// register opens an instance over inst's up-front info and returns its id.
func register(t *testing.T, s *Server, inst *setsystem.Instance, seed uint64) string {
	t.Helper()
	var resp RegisterResponse
	rec := do(t, s, "POST", "/v1/instances", RegisterRequest{
		Weights: inst.Weights, Sizes: inst.Sizes, Seed: seed, Shards: 2, BatchSize: 8,
	}, &resp)
	if rec.Code != http.StatusCreated {
		t.Fatalf("register: status %d: %s", rec.Code, rec.Body.String())
	}
	if resp.State != "idle" || resp.Shards != 2 || resp.ID == "" {
		t.Fatalf("register response = %+v", resp)
	}
	return resp.ID
}

// wireElems converts instance elements to their wire shape.
func wireElems(els []setsystem.Element) []WireElement {
	out := make([]WireElement, len(els))
	for i, el := range els {
		out[i] = WireElement{Members: el.Members, Capacity: el.Capacity}
	}
	return out
}

// uniformInst builds a deterministic uniform workload.
func uniformInst(t *testing.T, m, n, load int, seed int64) *setsystem.Instance {
	t.Helper()
	inst, err := workload.Uniform(workload.UniformConfig{M: m, N: n, Load: load, Capacity: 2},
		rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// TestRegisterIngestDrainHappyPath walks the full protocol and pins the
// headline guarantee: the drained result over HTTP is bit-for-bit the
// serial HashRandPr oracle's, and every per-element verdict matches the
// oracle's choice.
func TestRegisterIngestDrainHappyPath(t *testing.T) {
	const seed = 99
	inst := uniformInst(t, 40, 800, 4, 7)
	s := New(Config{})
	id := register(t, s, inst, seed)

	// Oracle: the serial distributed randPr under the same seed.
	oracle, err := core.Run(inst, &core.HashRandPr{Hasher: hashpr.Mixer{Seed: seed}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	prio := core.HashPriorities(core.InfoOf(inst), hashpr.Mixer{Seed: seed}, nil)

	// Ingest in a few batches, checking verdicts as they come back.
	const batch = 100
	for off := 0; off < len(inst.Elements); off += batch {
		end := min(off+batch, len(inst.Elements))
		var resp IngestResponse
		rec := do(t, s, "POST", "/v1/instances/"+id+"/elements",
			IngestRequest{Elements: wireElems(inst.Elements[off:end])}, &resp)
		if rec.Code != http.StatusOK {
			t.Fatalf("ingest: status %d: %s", rec.Code, rec.Body.String())
		}
		if resp.Ingested != end-off || len(resp.Verdicts) != end-off {
			t.Fatalf("ingest counts = %d verdicts / %d ingested, want %d", len(resp.Verdicts), resp.Ingested, end-off)
		}
		for i, v := range resp.Verdicts {
			el := inst.Elements[off+i]
			want := core.SelectTopPrioritySort(el.Members, el.Capacity, prio, nil)
			if fmt.Sprint(v.Admitted) != fmt.Sprint(want) {
				t.Fatalf("element %d verdict = %v, oracle chose %v", off+i, v.Admitted, want)
			}
			if len(v.Admitted)+len(v.Dropped) != len(el.Members) {
				t.Fatalf("element %d verdict splits %d+%d of %d members",
					off+i, len(v.Admitted), len(v.Dropped), len(el.Members))
			}
		}
	}

	var dr DrainResponse
	rec := do(t, s, "POST", "/v1/instances/"+id+"/drain", nil, &dr)
	if rec.Code != http.StatusOK {
		t.Fatalf("drain: status %d: %s", rec.Code, rec.Body.String())
	}
	if got := dr.Result.Core(); !got.Equal(oracle) {
		t.Fatalf("drained result differs from serial oracle: benefit %v vs %v", got.Benefit, oracle.Benefit)
	}
	if dr.Metrics.Processed != uint64(len(inst.Elements)) {
		t.Errorf("metrics.processed = %d, want %d", dr.Metrics.Processed, len(inst.Elements))
	}

	// Drain is idempotent over HTTP too.
	var dr2 DrainResponse
	do(t, s, "POST", "/v1/instances/"+id+"/drain", nil, &dr2)
	if !dr2.Result.Core().Equal(oracle) {
		t.Error("second drain returned a different result")
	}

	// Status reflects the terminal state.
	var st InstanceStatus
	do(t, s, "GET", "/v1/instances/"+id, nil, &st)
	if st.State != "drained" || st.Seed != seed || st.Sets != inst.NumSets() {
		t.Errorf("status = %+v", st)
	}
}

// TestIngestMalformedBatches pins every 400 path and that a rejected
// batch is atomic — nothing from it reaches the engine.
func TestIngestMalformedBatches(t *testing.T) {
	var b setsystem.Builder
	a := b.AddSet(1)
	c := b.AddSet(2)
	b.AddElement(a, c)
	b.AddElement(a)
	b.AddElement(c)
	inst := b.MustBuild()

	s := New(Config{MaxBatch: 4})
	id := register(t, s, inst, 1)
	path := "/v1/instances/" + id + "/elements"

	cases := []struct {
		name string
		raw  string
	}{
		{"not json", `{"elements": [`},
		{"unknown field", `{"elements": [], "bogus": 1}`},
		{"empty batch", `{"elements": []}`},
		{"no members", `{"elements": [{"members": [], "capacity": 1}]}`},
		{"zero capacity", `{"elements": [{"members": [0], "capacity": 0}]}`},
		{"capacity over int32", `{"elements": [{"members": [0], "capacity": 4294967296}]}`},
		// 2^32+1 narrows to an int32 capacity of 1: only a check made
		// before the copy rejects it.
		{"capacity narrowing to 1", `{"elements": [{"members": [0], "capacity": 4294967297}]}`},
		{"out of range", `{"elements": [{"members": [7], "capacity": 1}]}`},
		{"unsorted members", `{"elements": [{"members": [1,0], "capacity": 1}]}`},
		{"bad sibling poisons batch", `{"elements": [{"members": [0], "capacity": 1}, {"members": [9], "capacity": 1}]}`},
		{"oversized batch", `{"elements": [` + strings.Repeat(`{"members":[0],"capacity":1},`, 4) + `{"members":[0],"capacity":1}]}`},
	}
	for _, tc := range cases {
		req := httptest.NewRequest("POST", path, strings.NewReader(tc.raw))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, rec.Code, rec.Body.String())
		}
		var er ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error == "" {
			t.Errorf("%s: error body %q not the uniform shape", tc.name, rec.Body.String())
		}
		if tc.name == "capacity narrowing to 1" && !strings.Contains(er.Error, "capacity 4294967297") {
			t.Errorf("%s: error %q does not name capacity 4294967297", tc.name, er.Error)
		}
	}

	// Atomicity: despite the poisoned batches above, no element was
	// ingested — one valid element afterwards is the only one submitted.
	// Every accepted batch is submitted whole before the answer, so a
	// leaked element would show here.
	if rec := do(t, s, "POST", path, IngestRequest{Elements: wireElems(inst.Elements[1:2])}, nil); rec.Code != http.StatusOK {
		t.Fatalf("valid ingest: status %d: %s", rec.Code, rec.Body.String())
	}
	in, _ := s.Pool().Get(id)
	if got := in.Snapshot().Submitted; got != 1 {
		t.Errorf("submitted %d elements after one valid element, want 1: rejected batches leaked", got)
	}
}

// TestIngestAnswersAfterDecide pins that a JSON answer reports what the
// engine did: once a 3-element ingest returns 200, and before any
// drain, the instance's status shows all three submitted and decided
// in one batch.
func TestIngestAnswersAfterDecide(t *testing.T) {
	var b setsystem.Builder
	a := b.AddSet(1)
	c := b.AddSet(2)
	b.AddElement(a, c)
	b.AddElement(a)
	b.AddElement(c)
	inst := b.MustBuild()

	s := New(Config{})
	defer s.Shutdown(t.Context())
	id := register(t, s, inst, 7)
	var resp IngestResponse
	if rec := do(t, s, "POST", "/v1/instances/"+id+"/elements",
		IngestRequest{Elements: wireElems(inst.Elements)}, &resp); rec.Code != http.StatusOK || resp.Ingested != 3 {
		t.Fatalf("ingest: status %d, ingested %d: %s", rec.Code, resp.Ingested, rec.Body.String())
	}
	var st InstanceStatus
	do(t, s, "GET", "/v1/instances/"+id, nil, &st)
	if m := st.Metrics; m.Submitted != 3 || m.Processed != 3 || m.Batches != 1 {
		t.Errorf("status after the answer: submitted %d, processed %d, batches %d; want 3, 3, 1",
			m.Submitted, m.Processed, m.Batches)
	}
}

// TestIngestAfterDrainConflicts pins the 409 path.
func TestIngestAfterDrainConflicts(t *testing.T) {
	var b setsystem.Builder
	a := b.AddSet(1)
	b.AddElement(a)
	inst := b.MustBuild()

	s := New(Config{})
	id := register(t, s, inst, 1)
	do(t, s, "POST", "/v1/instances/"+id+"/drain", nil, nil)
	rec := do(t, s, "POST", "/v1/instances/"+id+"/elements",
		IngestRequest{Elements: []WireElement{{Members: []setsystem.SetID{0}, Capacity: 1}}}, nil)
	if rec.Code != http.StatusConflict {
		t.Errorf("ingest after drain: status %d, want 409 (%s)", rec.Code, rec.Body.String())
	}
}

// TestRegisterValidation pins the register 400 paths.
func TestRegisterValidation(t *testing.T) {
	s := New(Config{})
	bad := []RegisterRequest{
		{}, // no sets
		{Weights: []float64{1}, Sizes: []int{1, 2}},     // length mismatch
		{Weights: []float64{-1}, Sizes: []int{1}},       // negative weight
		{Weights: []float64{1}, Sizes: []int{0}},        // empty set
		{Weights: []float64{1, 2}, Sizes: []int{3, -1}}, // negative size
	}
	for i, req := range bad {
		if rec := do(t, s, "POST", "/v1/instances", req, nil); rec.Code != http.StatusBadRequest {
			t.Errorf("bad register %d: status %d, want 400", i, rec.Code)
		}
	}
	if rec := do(t, s, "GET", "/v1/instances/i-404", nil, nil); rec.Code != http.StatusNotFound {
		t.Errorf("unknown instance status: %d, want 404", rec.Code)
	}
	if rec := do(t, s, "POST", "/v1/instances/i-404/drain", nil, nil); rec.Code != http.StatusNotFound {
		t.Errorf("unknown instance drain: %d, want 404", rec.Code)
	}
}

// TestRegisterEngineSizingClamped pins the resource-bound hardening: a
// single unauthenticated registration must not be able to size the
// engine arbitrarily (each shard is a goroutine, a channel and an
// m-sized counter array; batch and queue sizes multiply the pre-filled
// free list).
func TestRegisterEngineSizingClamped(t *testing.T) {
	s := New(Config{})
	for name, req := range map[string]RegisterRequest{
		"huge shards":    {Weights: []float64{1}, Sizes: []int{1}, Shards: 2_000_000_000},
		"negative batch": {Weights: []float64{1}, Sizes: []int{1}, BatchSize: -1},
		"huge queue":     {Weights: []float64{1}, Sizes: []int{1}, QueueDepth: 1 << 30},
	} {
		if rec := do(t, s, "POST", "/v1/instances", req, nil); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", name, rec.Code, rec.Body.String())
		}
	}
	// The documented maxima are still accepted.
	ok := RegisterRequest{Weights: []float64{1}, Sizes: []int{1}, Shards: 4, BatchSize: maxBatchSize, QueueDepth: 8}
	if rec := do(t, s, "POST", "/v1/instances", ok, nil); rec.Code != http.StatusCreated {
		t.Errorf("in-range sizing rejected: %d (%s)", rec.Code, rec.Body.String())
	}

	// In-range fields whose PRODUCTS would still allocate unboundedly
	// are rejected: shards × queue depth (pre-filled batch free list)
	// and shards × sets (counter cells). Lower the caps so the probe
	// stays cheap.
	defer func(cells, batches int) { maxCounterCells, maxInFlightBatch = cells, batches }(maxCounterCells, maxInFlightBatch)
	maxCounterCells, maxInFlightBatch = 1<<10, 1<<10
	products := map[string]RegisterRequest{
		"queue product": {Weights: []float64{1}, Sizes: []int{1}, Shards: 64, QueueDepth: 1 << 10},
		"cells product": {Weights: make([]float64, 1<<7), Sizes: ones(1 << 7), Shards: 64},
	}
	for name, req := range products {
		if rec := do(t, s, "POST", "/v1/instances", req, nil); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", name, rec.Code, rec.Body.String())
		}
	}
}

// ones returns a size vector of n unit-sized sets.
func ones(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = 1
	}
	return out
}

// TestBodySizeLimit pins the 413 path: a body past MaxBodyBytes is
// refused without being buffered.
func TestBodySizeLimit(t *testing.T) {
	s := New(Config{MaxBodyBytes: 128})
	big := `{"weights":[` + strings.Repeat("1,", 200) + `1],"sizes":[` + strings.Repeat("1,", 200) + `1]}`
	req := httptest.NewRequest("POST", "/v1/instances", strings.NewReader(big))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413 (%s)", rec.Code, rec.Body.String())
	}
}

// TestPoolLimit pins the 429 path.
func TestPoolLimit(t *testing.T) {
	var b setsystem.Builder
	a := b.AddSet(1)
	b.AddElement(a)
	inst := b.MustBuild()

	s := New(Config{MaxInstances: 2})
	register(t, s, inst, 1)
	register(t, s, inst, 2)
	rec := do(t, s, "POST", "/v1/instances",
		RegisterRequest{Weights: inst.Weights, Sizes: inst.Sizes}, nil)
	if rec.Code != http.StatusTooManyRequests {
		t.Errorf("over-limit register: status %d, want 429", rec.Code)
	}
}

// TestConcurrentInstances hammers several instances from concurrent
// goroutines (run under -race in CI): each streams its own workload
// through the shared server and must still match its serial oracle
// exactly.
func TestConcurrentInstances(t *testing.T) {
	s := New(Config{})
	const workers = 6
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			seed := uint64(1000 + wk)
			inst := uniformInst(t, 30, 600, 3, int64(wk))
			var reg RegisterResponse
			rec := do(t, s, "POST", "/v1/instances", RegisterRequest{
				Weights: inst.Weights, Sizes: inst.Sizes, Seed: seed,
				Shards: 2, BatchSize: 16, Label: fmt.Sprintf("wk-%d", wk),
			}, &reg)
			if rec.Code != http.StatusCreated {
				t.Errorf("worker %d register: %d", wk, rec.Code)
				return
			}
			const batch = 50
			for off := 0; off < len(inst.Elements); off += batch {
				end := min(off+batch, len(inst.Elements))
				rec := do(t, s, "POST", "/v1/instances/"+reg.ID+"/elements",
					IngestRequest{Elements: wireElems(inst.Elements[off:end])}, nil)
				if rec.Code != http.StatusOK {
					t.Errorf("worker %d ingest: %d: %s", wk, rec.Code, rec.Body.String())
					return
				}
			}
			var dr DrainResponse
			do(t, s, "POST", "/v1/instances/"+reg.ID+"/drain", nil, &dr)
			oracle, err := core.Run(inst, &core.HashRandPr{Hasher: hashpr.Mixer{Seed: seed}}, nil)
			if err != nil {
				t.Error(err)
				return
			}
			if !dr.Result.Core().Equal(oracle) {
				t.Errorf("worker %d: result differs from oracle", wk)
			}
		}(wk)
	}
	wg.Wait()

	var list ListResponse
	do(t, s, "GET", "/v1/instances", nil, &list)
	if len(list.Instances) != workers {
		t.Errorf("list has %d instances, want %d", len(list.Instances), workers)
	}
}

// TestMetricsExposition pins the Prometheus rendering: state gauges,
// per-instance series with labels, escaping, and counter values that
// reflect the stream.
func TestMetricsExposition(t *testing.T) {
	var b setsystem.Builder
	a := b.AddSet(1)
	c := b.AddSet(2)
	b.AddElement(a, c)
	b.AddElement(a)
	b.AddElement(c)
	inst := b.MustBuild()

	s := New(Config{})
	var reg RegisterResponse
	do(t, s, "POST", "/v1/instances", RegisterRequest{
		Weights: inst.Weights, Sizes: inst.Sizes, Seed: 5, Label: `vid"eo\1`,
	}, &reg)
	do(t, s, "POST", "/v1/instances/"+reg.ID+"/elements",
		IngestRequest{Elements: wireElems(inst.Elements)}, nil)
	do(t, s, "POST", "/v1/instances/"+reg.ID+"/drain", nil, nil)

	rec := do(t, s, "GET", "/metrics", nil, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	body := rec.Body.String()
	for _, frag := range []string{
		`osp_instances{state="drained"} 1`,
		`osp_instance_state{instance="` + reg.ID + `",label="vid\"eo\\1",state="drained"} 1`,
		`osp_engine_processed_elements_total{instance="` + reg.ID + `",label="vid\"eo\\1"} 3`,
		"# TYPE osp_engine_submitted_elements_total counter",
		"# TYPE osp_engine_completed_weight gauge",
		"osp_engine_shards{",
	} {
		if !strings.Contains(body, frag) {
			t.Errorf("metrics exposition missing %q:\n%s", frag, body)
		}
	}
}

// TestMetricsNodeLabelEscapedOnce: a label value is escaped once, per
// the exposition format — the quote and the backslash each gain one
// backslash, so a Prometheus parser reads the node name back unchanged.
func TestMetricsNodeLabelEscapedOnce(t *testing.T) {
	s := New(Config{NodeLabel: `rack"7\a`})
	body := do(t, s, "GET", "/metrics", nil, nil).Body.String()
	want := `osp_node_info{node="rack\"7\\a"} 1`
	if !strings.Contains("\n"+body, "\n"+want+"\n") {
		t.Errorf("exposition has no line %s:\n%s", want, body)
	}
}

// TestRemoveInstance pins DELETE: drains, frees, 404s afterwards.
func TestRemoveInstance(t *testing.T) {
	var b setsystem.Builder
	a := b.AddSet(1)
	b.AddElement(a)
	inst := b.MustBuild()

	s := New(Config{})
	id := register(t, s, inst, 1)
	if rec := do(t, s, "DELETE", "/v1/instances/"+id, nil, nil); rec.Code != http.StatusNoContent {
		t.Fatalf("delete: status %d", rec.Code)
	}
	if rec := do(t, s, "GET", "/v1/instances/"+id, nil, nil); rec.Code != http.StatusNotFound {
		t.Errorf("status after delete: %d, want 404", rec.Code)
	}
	if rec := do(t, s, "DELETE", "/v1/instances/"+id, nil, nil); rec.Code != http.StatusNotFound {
		t.Errorf("double delete: %d, want 404", rec.Code)
	}
	if s.Pool().Len() != 0 {
		t.Errorf("pool still holds %d instances", s.Pool().Len())
	}
}

// TestHealthz pins the liveness probe on a live and a shutting-down
// server.
func TestHealthz(t *testing.T) {
	s := New(Config{})
	if rec := do(t, s, "GET", "/healthz", nil, nil); rec.Code != http.StatusOK {
		t.Errorf("healthz: %d", rec.Code)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if rec := do(t, s, "GET", "/healthz", nil, nil); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("healthz after shutdown: %d, want 503", rec.Code)
	}
	if rec := do(t, s, "POST", "/v1/instances",
		RegisterRequest{Weights: []float64{1}, Sizes: []int{1}}, nil); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("register after shutdown: %d, want 503", rec.Code)
	}
}

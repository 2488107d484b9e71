package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/setsystem"
	"repro/internal/wire"
)

// registerFrame posts a registration frame (empty ID, zero counters)
// for inst and returns the new instance's ID.
func registerFrame(t *testing.T, s *Server, inst *setsystem.Instance, seed uint64) string {
	t.Helper()
	rec := restore(t, s, encodeFrame(t, freshFrame(inst, seed)))
	var resp RegisterResponse
	if rec.Code != http.StatusCreated {
		t.Fatalf("frame register: status %d: %s", rec.Code, rec.Body.String())
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.State != "idle" || resp.Shards != 2 || resp.ID == "" {
		t.Fatalf("frame register response = %+v", resp)
	}
	return resp.ID
}

// freshFrame is the registration frame register's JSON body mirrors.
func freshFrame(inst *setsystem.Instance, seed uint64) *wire.Snapshot {
	return &wire.Snapshot{
		Seed: seed, Shards: 2, BatchSize: 8,
		Weights: inst.Weights, Sizes: inst.Sizes, Assigned: make([]int32, len(inst.Weights)),
	}
}

// drainFrame drains id asking for the result frame, as the binary
// client does, and returns the Result it carries.
func drainFrame(t *testing.T, s *Server, id string) *core.Result {
	t.Helper()
	req := httptest.NewRequest("POST", "/v1/instances/"+id+"/drain", nil)
	req.Header.Set("Accept", "application/json;q=0.5, "+wire.ContentTypeResult)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("frame drain: status %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != wire.ContentTypeResult {
		t.Fatalf("frame drain content type = %q", ct)
	}
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
		t.Fatalf("frame drain Content-Length %q for a %d-byte body", cl, rec.Body.Len())
	}
	res, err := wire.ReadResult(rec.Body)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestFrameRegisterDrainsToOracle pins the binary control plane: an
// instance registered by frame drains to the serial oracle whether the
// drain answers with the result frame or with JSON, and so does a
// JSON-registered one drained by frame.
func TestFrameRegisterDrainsToOracle(t *testing.T) {
	const seed = 808
	inst := uniformInst(t, 30, 900, 4, 17)
	pol, err := core.LookupPolicy(core.DefaultPolicy)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := core.Run(inst, &core.PolicyAlgorithm{Policy: pol, Seed: seed}, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{})
	for _, arm := range []struct {
		name       string
		register   func(*testing.T, *Server, *setsystem.Instance, uint64) string
		frameDrain bool
	}{
		{"frame register, frame drain", registerFrame, true},
		{"frame register, JSON drain", registerFrame, false},
		{"JSON register, frame drain", register, true},
	} {
		id := arm.register(t, s, inst, seed)
		if rec := do(t, s, "POST", "/v1/instances/"+id+"/elements",
			IngestRequest{Elements: wireElems(inst.Elements)}, nil); rec.Code != http.StatusOK {
			t.Fatalf("%s: ingest: status %d: %s", arm.name, rec.Code, rec.Body.String())
		}
		var got *core.Result
		if arm.frameDrain {
			got = drainFrame(t, s, id)
		} else {
			var dr DrainResponse
			do(t, s, "POST", "/v1/instances/"+id+"/drain", nil, &dr)
			got = dr.Result.Core()
		}
		if !got.Equal(oracle) {
			t.Errorf("%s: drained benefit %v, oracle %v", arm.name, got.Benefit, oracle.Benefit)
		}
		// Draining again answers the same frame.
		if arm.frameDrain && !drainFrame(t, s, id).Equal(oracle) {
			t.Errorf("%s: second drain differs", arm.name)
		}
	}
}

// TestDrainWithoutAcceptAnswersJSON pins that the drain body is JSON
// unless the request accepts the result frame — an Accept naming only
// the snapshot frame gets JSON too — and that it is the same body
// whichever way the instance was registered.
func TestDrainWithoutAcceptAnswersJSON(t *testing.T) {
	inst := uniformInst(t, 25, 500, 3, 4)
	s := New(Config{})
	bodies := map[string]DrainResponse{}
	for name, reg := range map[string]func(*testing.T, *Server, *setsystem.Instance, uint64) string{
		"json": register, "frame": registerFrame,
	} {
		for _, accept := range []string{"", wire.ContentTypeSnapshot} {
			id := reg(t, s, inst, 31)
			do(t, s, "POST", "/v1/instances/"+id+"/elements", IngestRequest{Elements: wireElems(inst.Elements)}, nil)
			req := httptest.NewRequest("POST", "/v1/instances/"+id+"/drain", nil)
			if accept != "" {
				req.Header.Set("Accept", accept)
			}
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			if ct := rec.Header().Get("Content-Type"); rec.Code != http.StatusOK || ct != "application/json" {
				t.Fatalf("%s-registered drain, Accept %q: status %d, content type %q", name, accept, rec.Code, ct)
			}
			var raw map[string]json.RawMessage
			var dr DrainResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &raw); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &dr); err != nil {
				t.Fatal(err)
			}
			if len(raw) != 2 || raw["result"] == nil || raw["metrics"] == nil {
				t.Fatalf("%s-registered drain, Accept %q, body keys: %s", name, accept, rec.Body.String())
			}
			bodies[name+" "+accept] = dr
		}
	}
	want := bodies["json "]
	want.Metrics.ElapsedSeconds, want.Metrics.ElementsPerSec = 0, 0
	for key, b := range bodies {
		if !want.Result.Core().Equal(b.Result.Core()) {
			t.Errorf("%s: drains a different JSON result", key)
		}
		b.Metrics.ElapsedSeconds, b.Metrics.ElementsPerSec = 0, 0
		if want.Metrics != b.Metrics {
			t.Errorf("%s: drain metrics differ: %+v, want %+v", key, b.Metrics, want.Metrics)
		}
	}
}

// TestFrameRegisterRejectsNonFresh pins that a frame without an ID is a
// fresh registration only: counters must be zero and Final unset.
func TestFrameRegisterRejectsNonFresh(t *testing.T) {
	inst := uniformInst(t, 10, 100, 3, 2)
	s := New(Config{})
	for name, mutate := range map[string]func(*wire.Snapshot){
		"final":        func(f *wire.Snapshot) { f.Final = true },
		"submitted":    func(f *wire.Snapshot) { f.Submitted, f.Processed = 5, 5 },
		"batches":      func(f *wire.Snapshot) { f.Batches = 1 },
		"assigned sum": func(f *wire.Snapshot) { f.AssignedTotal = 1 },
		"dropped":      func(f *wire.Snapshot) { f.Dropped = 2 },
		"set count":    func(f *wire.Snapshot) { f.Assigned[3] = 1 },
	} {
		f := freshFrame(inst, 1)
		mutate(f)
		rec := restore(t, s, encodeFrame(t, f))
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "register: a frame without an id") {
			t.Errorf("%s: status %d body %s, want 400", name, rec.Code, rec.Body.String())
		}
	}
	if n := s.Pool().Len(); n != 0 {
		t.Fatalf("rejected frames registered %d instances", n)
	}
}

// TestFrameRegisterValidation pins that one check serves both arms: a
// registration frame the wire accepts is refused with the same message
// as the JSON registration it mirrors.
func TestFrameRegisterValidation(t *testing.T) {
	s := New(Config{})
	for name, req := range map[string]RegisterRequest{
		"no sets":         {},
		"negative weight": {Weights: []float64{-1}, Sizes: []int{1}},
		"empty set":       {Weights: []float64{1}, Sizes: []int{0}},
		"huge shards":     {Weights: []float64{1}, Sizes: []int{1}, Shards: 2_000_000},
		"huge queue":      {Weights: []float64{1}, Sizes: []int{1}, QueueDepth: 1 << 30},
		"unknown policy":  {Weights: []float64{1}, Sizes: []int{1}, Policy: "bogus"},
		"long label":      {Weights: []float64{1}, Sizes: []int{1}, Label: strings.Repeat("x", maxLabelLen+1)},
	} {
		jrec := do(t, s, "POST", "/v1/instances", req, nil)
		if jrec.Code != http.StatusBadRequest {
			t.Errorf("%s: JSON register status %d, want 400", name, jrec.Code)
		}
		if len(req.Label) > maxLabelLen {
			continue // a frame cannot carry it
		}
		frec := restore(t, s, encodeFrame(t, &wire.Snapshot{
			Seed: req.Seed, Shards: req.Shards, BatchSize: req.BatchSize, QueueDepth: req.QueueDepth,
			Policy: req.Policy, Label: req.Label,
			Weights: req.Weights, Sizes: req.Sizes, Assigned: make([]int32, len(req.Weights)),
		}))
		if frec.Code != http.StatusBadRequest || frec.Body.String() != jrec.Body.String() {
			t.Errorf("%s: frame register %d %s, JSON register %d %s", name,
				frec.Code, frec.Body.String(), jrec.Code, jrec.Body.String())
		}
	}
	if n := s.Pool().Len(); n != 0 {
		t.Fatalf("rejected registrations left %d instances", n)
	}
}

// TestFrameHeaderAloneAllocatesLittle pins the reason the frame is read
// through a chunk: a header claiming 2^24 sets, then EOF, is a 400 that
// costs the handler well under a megabyte — registration is
// unauthenticated, so what a header claims must not size allocations.
func TestFrameHeaderAloneAllocatesLittle(t *testing.T) {
	s := New(Config{})
	raw := encodeFrame(t, &wire.Snapshot{Weights: []float64{1}, Sizes: []int{1}, Assigned: []int32{0}})
	header := raw[:len(raw)-16]
	binary.LittleEndian.PutUint32(header[len(header)-4:], 1<<24)
	req := httptest.NewRequest("POST", "/v1/instances", bytes.NewReader(header))
	req.Header.Set("Content-Type", wire.ContentTypeSnapshot)
	rec := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s.ServeHTTP(rec, req)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("header-only frame: status %d body %s, want 400", rec.Code, rec.Body.String())
	}
	t.Logf("handler allocated %d bytes", after.TotalAlloc-before.TotalAlloc)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("header-only frame allocated %d bytes in the handler, want < 1 MiB", got)
	}
}

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/setsystem"
	"repro/internal/wire"
)

// takeSnapshot hits POST /v1/instances/{id}/snapshot and returns the
// decoded frame.
func takeSnapshot(t *testing.T, s *Server, id string) (*wire.Snapshot, []byte) {
	t.Helper()
	req := httptest.NewRequest("POST", "/v1/instances/"+id+"/snapshot", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("snapshot: status %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != wire.ContentTypeSnapshot {
		t.Fatalf("snapshot content type = %q", ct)
	}
	snap, err := wire.ReadSnapshot(bytes.NewReader(rec.Body.Bytes()))
	if err != nil {
		t.Fatalf("snapshot frame: %v", err)
	}
	return snap, rec.Body.Bytes()
}

// encodeFrame is wire.WriteSnapshot into memory.
func encodeFrame(t *testing.T, snap *wire.Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := wire.WriteSnapshot(&buf, snap); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// restore posts a snapshot frame to /v1/instances.
func restore(t *testing.T, s *Server, raw []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("POST", "/v1/instances", bytes.NewReader(raw))
	req.Header.Set("Content-Type", wire.ContentTypeSnapshot)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

// TestSnapshotRestoreResumesExactly is the service-level recovery pin:
// ingest half, snapshot, restore onto a FRESH server (the restart),
// ingest the rest there, and the drain equals the uninterrupted oracle.
func TestSnapshotRestoreResumesExactly(t *testing.T) {
	const seed = 4242
	inst := uniformInst(t, 40, 1200, 4, 21)
	pol, err := core.LookupPolicy(core.DefaultPolicy)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := core.Run(inst, &core.PolicyAlgorithm{Policy: pol, Seed: seed}, nil)
	if err != nil {
		t.Fatal(err)
	}

	s1 := New(Config{})
	id := register(t, s1, inst, seed)
	half := len(inst.Elements) / 2
	rec := do(t, s1, "POST", "/v1/instances/"+id+"/elements",
		IngestRequest{Elements: wireElems(inst.Elements[:half])}, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest: status %d: %s", rec.Code, rec.Body.String())
	}

	snap, raw := takeSnapshot(t, s1, id)
	if snap.ID != id || snap.Final || snap.Submitted != uint64(half) {
		t.Fatalf("snapshot = ID %q Final %v Submitted %d, want %q false %d",
			snap.ID, snap.Final, snap.Submitted, id, half)
	}

	// The "restart": a brand-new server restores the frame.
	s2 := New(Config{})
	var resp RegisterResponse
	rrec := restore(t, s2, raw)
	if rrec.Code != http.StatusCreated {
		t.Fatalf("restore: status %d: %s", rrec.Code, rrec.Body.String())
	}
	if err := json.Unmarshal(rrec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.ID != id || resp.State != "streaming" {
		t.Fatalf("restore response = %+v, want ID %q streaming", resp, id)
	}

	rec = do(t, s2, "POST", "/v1/instances/"+id+"/elements",
		IngestRequest{Elements: wireElems(inst.Elements[half:])}, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("resumed ingest: status %d: %s", rec.Code, rec.Body.String())
	}
	var dr DrainResponse
	do(t, s2, "POST", "/v1/instances/"+id+"/drain", nil, &dr)
	if got := dr.Result.Core(); !got.Equal(oracle) {
		t.Fatalf("restored drain differs from oracle: benefit %v vs %v", got.Benefit, oracle.Benefit)
	}
	if dr.Metrics.Submitted != uint64(len(inst.Elements)) {
		t.Errorf("restored metrics.submitted = %d, want %d (resumed, not reset)",
			dr.Metrics.Submitted, len(inst.Elements))
	}

	// Fresh registrations on the restored server must not collide with
	// the restored ID.
	id2 := register(t, s2, inst, 1)
	if id2 == id {
		t.Fatalf("fresh registration reused restored id %q", id)
	}
}

// TestSnapshotFinalRoundTrip pins the terminal form: snapshotting a
// drained instance and restoring it yields a drained instance with the
// identical Result.
func TestSnapshotFinalRoundTrip(t *testing.T) {
	inst := uniformInst(t, 20, 400, 4, 5)
	s1 := New(Config{})
	id := register(t, s1, inst, 77)
	do(t, s1, "POST", "/v1/instances/"+id+"/elements",
		IngestRequest{Elements: wireElems(inst.Elements)}, nil)
	var dr DrainResponse
	do(t, s1, "POST", "/v1/instances/"+id+"/drain", nil, &dr)

	snap, raw := takeSnapshot(t, s1, id)
	if !snap.Final {
		t.Fatal("snapshot of client-drained instance not Final")
	}

	s2 := New(Config{})
	rrec := restore(t, s2, raw)
	if rrec.Code != http.StatusCreated {
		t.Fatalf("restore: status %d: %s", rrec.Code, rrec.Body.String())
	}
	var dr2 DrainResponse
	do(t, s2, "POST", "/v1/instances/"+id+"/drain", nil, &dr2)
	if !dr2.Result.Core().Equal(dr.Result.Core()) {
		t.Fatal("restored terminal Result differs from original")
	}
	var st InstanceStatus
	do(t, s2, "GET", "/v1/instances/"+id, nil, &st)
	if st.State != "drained" {
		t.Fatalf("restored state = %q, want drained", st.State)
	}
}

// TestRestoreRejections sweeps the restore error surface: garbage
// frames, duplicate IDs, malformed IDs.
func TestRestoreRejections(t *testing.T) {
	inst := uniformInst(t, 10, 100, 3, 9)
	s := New(Config{})
	id := register(t, s, inst, 3)
	_, raw := takeSnapshot(t, s, id)

	if rec := restore(t, s, []byte("not a frame")); rec.Code != http.StatusBadRequest {
		t.Errorf("garbage restore: status %d", rec.Code)
	}
	// Restoring onto a server that still holds the instance collides.
	if rec := restore(t, s, raw); rec.Code != http.StatusBadRequest ||
		!strings.Contains(rec.Body.String(), "already exists") {
		t.Errorf("duplicate restore: status %d body %s", rec.Code, rec.Body.String())
	}
	// An ID outside the pool's own form is refused.
	snap, err := wire.ReadSnapshot(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	snap.ID = "../../etc/passwd"
	bad := encodeFrame(t, snap)
	if rec := restore(t, New(Config{}), bad); rec.Code != http.StatusBadRequest ||
		!strings.Contains(rec.Body.String(), "not of the form") {
		t.Errorf("malformed id restore: status %d body %s", rec.Code, rec.Body.String())
	}
	// Only the pool's canonical spelling of a counter is an ID: i-05 and
	// i-+5 would otherwise go live beside i-5, all three claiming 5.
	s2 := New(Config{})
	for _, id := range []string{"i-5", "i-05", "i-+5", "i-0", "i-"} {
		snap.ID = id
		rec := restore(t, s2, encodeFrame(t, snap))
		switch {
		case id == "i-5" && rec.Code != http.StatusCreated:
			t.Errorf("restore %s: status %d body %s", id, rec.Code, rec.Body.String())
		case id != "i-5" && (rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "not of the form")):
			t.Errorf("non-canonical id %q restore: status %d body %s", id, rec.Code, rec.Body.String())
		}
	}
	if n := s2.Pool().Len(); n != 1 {
		t.Errorf("restoring i-5 and its non-canonical spellings left %d instances, want 1", n)
	}
}

// TestWriteSnapshotsRestoreDir pins the daemon round trip: shutdown
// writes one file per instance, a fresh server restores the lot, and
// removed instances do not resurrect.
func TestWriteSnapshotsRestoreDir(t *testing.T) {
	dir := t.TempDir()
	inst := uniformInst(t, 20, 600, 4, 13)
	pol, err := core.LookupPolicy(core.DefaultPolicy)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := core.Run(inst, &core.PolicyAlgorithm{Policy: pol, Seed: 55}, nil)
	if err != nil {
		t.Fatal(err)
	}

	s1 := New(Config{SnapshotDir: dir})
	idA := register(t, s1, inst, 55)
	idB := register(t, s1, inst, 56)
	half := len(inst.Elements) / 2
	do(t, s1, "POST", "/v1/instances/"+idA+"/elements",
		IngestRequest{Elements: wireElems(inst.Elements[:half])}, nil)
	// Remove B: it must not come back after the restart.
	if rec := do(t, s1, "DELETE", "/v1/instances/"+idB, nil, nil); rec.Code != http.StatusNoContent {
		t.Fatalf("remove: status %d", rec.Code)
	}
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s1.WriteSnapshots(context.Background(), dir); err != nil {
		t.Fatalf("WriteSnapshots: %v", err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*.osps"))
	if len(files) != 1 || filepath.Base(files[0]) != idA+".osps" {
		t.Fatalf("snapshot files = %v, want exactly %s.osps", files, idA)
	}
	// No temp litter from the atomic writes.
	if litter, _ := filepath.Glob(filepath.Join(dir, "*.tmp-*")); len(litter) != 0 {
		t.Fatalf("temp files left behind: %v", litter)
	}

	s2 := New(Config{SnapshotDir: dir})
	n, err := s2.RestoreDir(dir)
	if err != nil || n != 1 {
		t.Fatalf("RestoreDir = %d, %v; want 1, nil", n, err)
	}
	do(t, s2, "POST", "/v1/instances/"+idA+"/elements",
		IngestRequest{Elements: wireElems(inst.Elements[half:])}, nil)
	var dr DrainResponse
	do(t, s2, "POST", "/v1/instances/"+idA+"/drain", nil, &dr)
	if got := dr.Result.Core(); !got.Equal(oracle) {
		t.Fatalf("post-restart drain differs from oracle: benefit %v vs %v", got.Benefit, oracle.Benefit)
	}
	if _, ok := s2.Pool().Get(idB); ok {
		t.Errorf("removed instance %s resurrected", idB)
	}
	// RestoreDir on a missing directory is a first boot, not an error.
	if n, err := New(Config{}).RestoreDir(filepath.Join(dir, "nope")); n != 0 || err != nil {
		t.Errorf("RestoreDir(missing) = %d, %v", n, err)
	}
	// A corrupt snapshot file is reported but does not block the boot.
	dir2 := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir2, "i-1.osps"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if n, err := New(Config{}).RestoreDir(dir2); n != 0 || err == nil {
		t.Errorf("RestoreDir(corrupt) = %d, %v; want 0 restored and an error", n, err)
	}
}

// restoreFrame is a restore frame for instance id over inst: zero
// counters, not Final, so it restores a fresh instance under that ID.
func restoreFrame(inst *setsystem.Instance, id string) *wire.Snapshot {
	f := freshFrame(inst, 1)
	f.ID = id
	return f
}

// TestRestoreRacingRegisterForOneID pins that an ID opens once: a
// restore of i-1 that lands while a fresh registration holds i-1 —
// reserved, its engine not yet built — is refused, and the pool keeps
// the registered instance.
func TestRestoreRacingRegisterForOneID(t *testing.T) {
	inst := uniformInst(t, 10, 100, 3, 9)
	p := NewPool(0)
	defer p.Shutdown(context.Background()) //nolint:errcheck
	reserved, release := make(chan struct{}), make(chan struct{})
	var attached atomic.Int32
	p.SetTelemetry(func(id, policy string, shards int) *obs.EngineTelemetry {
		if attached.Add(1) == 1 {
			close(reserved)
			<-release
		}
		return nil
	}, nil)
	type opened struct {
		in  *Instance
		err error
	}
	registered := make(chan opened, 1)
	go func() {
		in, err := p.Register(Spec{Info: core.InfoOf(inst), Seed: 1, Engine: engine.Config{Shards: 2}})
		registered <- opened{in, err}
	}()
	<-reserved
	restored, rerr := p.Restore(restoreFrame(inst, "i-1"))
	close(release)
	reg := <-registered

	if (reg.err == nil) == (rerr == nil) {
		t.Fatalf("register = %v, restore = %v: want exactly one to succeed", reg.err, rerr)
	}
	if rerr == nil || !strings.Contains(rerr.Error(), "already exists") {
		t.Fatalf("restore of an ID a registration holds = %v, want already exists", rerr)
	}
	if got, ok := p.Get("i-1"); !ok || got != reg.in || p.Len() != 1 {
		t.Fatalf("pool holds %v (%d instances), want the registered instance alone", got, p.Len())
	}
	if restored != nil {
		restored.Drain() //nolint:errcheck // stop an instance the pool lost
	}
}

// TestOpenRefusals pins every refusal on each way an instance opens — a
// JSON register, a frame register, a frame restore and a boot restore
// (RestoreDir) — to the status and message it answers: 503 once the pool
// is closed, 429 at the instance limit, 400 for a restored ID that is
// taken, 400 for an unknown policy.
func TestOpenRefusals(t *testing.T) {
	inst := uniformInst(t, 10, 100, 3, 9)
	_, unknown := core.LookupPolicy("bogus")
	if unknown == nil {
		t.Fatal("policy bogus is registered")
	}
	// Each way opens the instance frame f describes (registrations
	// ignore its ID) and reports the answer: status and error message,
	// or 0 and the returned error for RestoreDir.
	ways := []struct {
		name string
		open func(s *Server, f *wire.Snapshot) (int, string)
	}{
		{"json register", func(s *Server, f *wire.Snapshot) (int, string) {
			return answer(t, do(t, s, "POST", "/v1/instances", RegisterRequest{
				Weights: f.Weights, Sizes: f.Sizes, Seed: f.Seed, Shards: f.Shards, Policy: f.Policy,
			}, nil))
		}},
		{"frame register", func(s *Server, f *wire.Snapshot) (int, string) {
			g := *f
			g.ID = ""
			return answer(t, restore(t, s, encodeFrame(t, &g)))
		}},
		{"frame restore", func(s *Server, f *wire.Snapshot) (int, string) {
			return answer(t, restore(t, s, encodeFrame(t, f)))
		}},
		{"boot restore", func(s *Server, f *wire.Snapshot) (int, string) {
			dir := t.TempDir()
			if err := writeSnapshotFile(dir, f); err != nil {
				t.Fatal(err)
			}
			if _, err := s.RestoreDir(dir); err != nil {
				return 0, err.Error()
			}
			return 0, ""
		}},
	}
	closed := func(s *Server) {
		if err := s.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	holdsOne := func(s *Server) { register(t, s, inst, 5) }
	for _, tc := range []struct {
		name   string
		max    int
		setup  func(*Server)
		frame  *wire.Snapshot
		status int
		want   map[string]string // by way; a missing way is not refused
	}{
		{"pool closed", 0, closed, restoreFrame(inst, "i-1"), http.StatusServiceUnavailable, map[string]string{
			"json register":  "serve: pool is shutting down",
			"frame register": "serve: pool is shutting down",
			"frame restore":  "serve: pool is shutting down",
			"boot restore":   "i-1.osps: serve: pool is shutting down",
		}},
		{"pool full", 1, holdsOne, restoreFrame(inst, "i-2"), http.StatusTooManyRequests, map[string]string{
			"json register":  "serve: instance limit reached (max 1)",
			"frame register": "serve: instance limit reached (max 1)",
			"frame restore":  "serve: instance limit reached (max 1)",
			"boot restore":   "i-2.osps: serve: instance limit reached (max 1)",
		}},
		{"id taken", 0, holdsOne, restoreFrame(inst, "i-1"), http.StatusBadRequest, map[string]string{
			"frame restore": "restore: serve: restore: instance i-1 already exists",
			"boot restore":  "i-1.osps: serve: restore: instance i-1 already exists",
		}},
		{"unknown policy", 0, func(*Server) {}, func() *wire.Snapshot {
			f := restoreFrame(inst, "i-1")
			f.Policy = "bogus"
			return f
		}(), http.StatusBadRequest, map[string]string{
			"json register":  "register: " + unknown.Error(),
			"frame register": "register: " + unknown.Error(),
			"frame restore":  "restore: " + unknown.Error(),
			"boot restore":   "i-1.osps: " + unknown.Error(),
		}},
	} {
		for _, w := range ways {
			s := New(Config{MaxInstances: tc.max})
			tc.setup(s)
			before := s.Pool().Len()
			status, msg := w.open(s, tc.frame)
			want, refused := tc.want[w.name]
			switch {
			case !refused:
				if msg != "" || (status != 0 && status != http.StatusCreated) {
					t.Errorf("%s, %s: answered %d %q, want it opened", tc.name, w.name, status, msg)
				}
			case msg != want || (status != 0 && status != tc.status):
				t.Errorf("%s, %s: answered %d %q, want %d %q", tc.name, w.name, status, msg, tc.status, want)
			case s.Pool().Len() != before:
				t.Errorf("%s, %s: refused, but the pool went from %d to %d instances", tc.name, w.name, before, s.Pool().Len())
			}
			s.Shutdown(context.Background()) //nolint:errcheck
		}
	}
}

// answer is a response's status and, for a refusal, its error message.
func answer(t *testing.T, rec *httptest.ResponseRecorder) (int, string) {
	t.Helper()
	if rec.Code == http.StatusCreated {
		return rec.Code, ""
	}
	var er ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
		t.Fatalf("status %d: bad error body %q: %v", rec.Code, rec.Body.String(), err)
	}
	return rec.Code, er.Error
}

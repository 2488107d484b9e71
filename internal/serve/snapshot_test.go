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
	"testing"

	"repro/internal/core"
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

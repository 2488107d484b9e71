package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/wire"
)

// Snapshot frames at the service layer: Export quiesces one instance
// and frames its recoverable state (engine.Checkpoint → wire.Snapshot);
// Pool.Restore rebuilds an instance — same ID, same policy state,
// counters resumed — from such a frame, through Register's open path.
// The HTTP surface is POST /v1/instances/{id}/snapshot (returns the
// frame, and persists it when the server runs with a snapshot
// directory) and POST /v1/instances with Content-Type
// application/x-osp-snapshot (register when the frame's ID is empty,
// restore-on-register otherwise). A drained instance's snapshot is its
// Final frame; the drain itself answers with the smaller result frame
// (handleDrain). Every frame is streamed through wire's fixed chunk.
// ospserve -snapshot-dir wires WriteSnapshots / RestoreDir around
// shutdown and boot so a restart loses nothing.

// exportQuiesceTimeout bounds how long a snapshot request waits for the
// engine's in-flight batches to be decided. The backlog is bounded by
// shards × queue depth batches that the shards are actively consuming,
// so multi-second stalls indicate something much worse than load.
const exportQuiesceTimeout = 30 * time.Second

// Export quiesces the instance and returns its snapshot frame contents.
// The instance keeps serving afterwards — exporting is a read. Every
// submitter is fenced out for the duration (rw write side), so the
// checkpoint's quiesce point covers both ingest arms.
func (in *Instance) Export(ctx context.Context) (*wire.Snapshot, error) {
	in.rw.Lock()
	defer in.rw.Unlock()
	cp, err := in.eng.Checkpoint(ctx)
	if err != nil {
		return nil, err
	}
	cfg := in.eng.Config()
	return &wire.Snapshot{
		ID:     in.id,
		Label:  in.label,
		Policy: in.eng.PolicyName(),
		Seed:   in.seed,
		Shards: cfg.Shards, BatchSize: cfg.BatchSize, QueueDepth: cfg.QueueDepth,
		Final:     cp.Final && in.Final(),
		Submitted: cp.Submitted, Processed: cp.Processed, Batches: cp.Batches,
		AssignedTotal: cp.AssignedTotal, Dropped: cp.Dropped,
		Weights:  in.info.Weights,
		Sizes:    in.info.Sizes,
		Assigned: cp.Assigned,
	}, nil
}

// Restore rebuilds an instance from a snapshot under its original ID:
// the engine's policy state is reconstructed from (Info, policy, seed) —
// identical by purity — and the snapshot's per-set counts become the
// baseline its eventual drain merges, so the restored instance's final
// Result is bit-for-bit what the uninterrupted instance would have
// reported. A Final snapshot is restored directly into the drained
// state with its terminal Result re-derived. It opens the instance
// through the same path as Register, so a live ID, or one a
// registration is building, is refused.
//
// The ID must be the pool's own canonical "i-<n>" (snapshots come from
// a pool); the registration counter is bumped past it so later fresh
// registrations never collide.
func (p *Pool) Restore(snap *wire.Snapshot) (*Instance, error) {
	n, err := restoreID(snap.ID)
	if err != nil {
		return nil, err
	}
	return p.open(specOf(snap), n, &engine.Checkpoint{
		Submitted: snap.Submitted, Processed: snap.Processed, Batches: snap.Batches,
		AssignedTotal: snap.AssignedTotal, Dropped: snap.Dropped,
		Assigned: snap.Assigned, Final: snap.Final,
	})
}

// restoreID extracts the counter n of an ID spelled exactly as the pool
// spells it, "i-" + strconv.Itoa(n) with n >= 1: i-05 or i-+5 would
// otherwise go live beside i-5.
func restoreID(id string) (int, error) {
	n, err := strconv.Atoi(strings.TrimPrefix(id, "i-"))
	if err != nil || n < 1 || id != "i-"+strconv.Itoa(n) {
		return 0, fmt.Errorf("serve: restore: instance id %q is not of the form i-<n>", id)
	}
	return n, nil
}

// handleSnapshot serves POST /v1/instances/{id}/snapshot: quiesce the
// instance, answer its snapshot frame, and — when the server runs with
// a snapshot directory — persist the frame atomically first, so the
// state survives even a kill -9 from this moment on.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	in, ok := s.instance(w, r)
	if !ok {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), exportQuiesceTimeout)
	defer cancel()
	snap, err := in.Export(ctx)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, "snapshot: %v", err)
		return
	}
	if s.cfg.SnapshotDir != "" {
		if err := writeSnapshotFile(s.cfg.SnapshotDir, snap); err != nil {
			writeError(w, http.StatusInternalServerError, "snapshot: persist: %v", err)
			return
		}
	}
	writeFrame(w, snap)
}

// writeFrame answers 200 with a snapshot frame, encoded straight into
// the response.
func writeFrame(w http.ResponseWriter, snap *wire.Snapshot) {
	w.Header().Set("Content-Type", wire.ContentTypeSnapshot)
	w.Header().Set("Content-Length", strconv.Itoa(wire.SnapshotLen(snap)))
	w.WriteHeader(http.StatusOK)
	wire.WriteSnapshot(w, snap) //nolint:errcheck // client gone mid-write is not actionable
}

// handleFrame is the frame arm of POST /v1/instances, taken when the
// request body is a snapshot frame (Content-Type
// application/x-osp-snapshot). A frame with an empty ID registers a
// fresh instance, so its counters must be zero and it cannot be Final;
// any other frame restores the instance it was taken from. The frame is
// read through a fixed chunk, never buffered whole, and it passes the
// same checks as a JSON registration — it is still an unauthenticated
// request.
func (s *Server) handleFrame(w http.ResponseWriter, r *http.Request) {
	snap, err := wire.ReadSnapshot(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, "snapshot frame: %v", err)
		return
	}
	spec, op := specOf(snap), "restore"
	if snap.ID == "" {
		op = "register"
		err = checkFresh(snap)
	}
	if err == nil {
		err = checkSpec(spec)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "%s: %v", op, err)
		return
	}
	var in *Instance
	if snap.ID == "" {
		in, err = s.pool.Register(spec)
	} else {
		in, err = s.pool.Restore(snap)
	}
	writeRegistered(w, op, in, err)
}

// specOf is the registration a snapshot frame carries.
func specOf(snap *wire.Snapshot) Spec {
	return Spec{
		Info: core.Info{Weights: snap.Weights, Sizes: snap.Sizes},
		Seed: snap.Seed,
		Engine: engine.Config{
			Shards: snap.Shards, BatchSize: snap.BatchSize, QueueDepth: snap.QueueDepth,
			Policy: snap.Policy,
		},
		Label: snap.Label,
	}
}

// checkFresh holds a registration frame (empty ID) to a fresh
// instance's state: not Final, every counter zero.
func checkFresh(snap *wire.Snapshot) error {
	if snap.Final {
		return errors.New("a frame without an id registers a fresh instance; it cannot be Final")
	}
	if snap.Submitted|snap.Processed|snap.Batches|snap.AssignedTotal|snap.Dropped != 0 {
		return errors.New("a frame without an id registers a fresh instance; its stream counters must be zero")
	}
	for i, a := range snap.Assigned {
		if a != 0 {
			return fmt.Errorf("a frame without an id registers a fresh instance; set %d has assigned count %d", i, a)
		}
	}
	return nil
}

// snapshotFileName maps an instance ID to its file in the snapshot
// directory. IDs are pool-generated ("i-<n>"), so the name is always a
// clean single path element.
func snapshotFileName(id string) string { return id + ".osps" }

// WriteSnapshots exports every live instance into dir, one atomic file
// each, replacing whatever snapshot files a previous run left there —
// the pool is the authority on what exists; stale files must not
// resurrect removed instances at the next boot. Called by the daemon
// after its graceful shutdown drain (the engines are quiesced by then,
// so every export is instant). Export errors are joined, not
// short-circuited: one bad instance must not cost the others their
// durability.
func (s *Server) WriteSnapshots(ctx context.Context, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("serve: snapshot dir: %w", err)
	}
	stale, _ := filepath.Glob(filepath.Join(dir, "*.osps"))
	for _, path := range stale {
		os.Remove(path) //nolint:errcheck // best effort; overwritten below anyway
	}
	var errs []error
	for _, in := range s.pool.Instances() {
		snap, err := in.Export(ctx)
		if err == nil {
			err = writeSnapshotFile(dir, snap)
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("instance %s: %w", in.ID(), err))
		}
	}
	return errors.Join(errs...)
}

// RestoreDir restores every snapshot file in dir into the pool —
// the boot-time mirror of WriteSnapshots. A missing directory is a
// first boot, not an error. Undecodable or unrestorable files are
// joined into the returned error; the good ones are restored regardless.
func (s *Server) RestoreDir(dir string) (restored int, err error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.osps"))
	if err != nil {
		return 0, fmt.Errorf("serve: snapshot dir: %w", err)
	}
	var errs []error
	for _, path := range paths {
		if err := s.restoreFile(path); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", filepath.Base(path), err))
			continue
		}
		restored++
	}
	return restored, errors.Join(errs...)
}

// restoreFile restores the instance a snapshot file holds, reading the
// frame from the open file.
func (s *Server) restoreFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	snap, err := wire.ReadSnapshot(f)
	if err != nil {
		return err
	}
	if err := checkSpec(specOf(snap)); err != nil {
		return err
	}
	_, err = s.pool.Restore(snap)
	return err
}

// writeSnapshotFile writes the instance's frame into dir with crash-safe
// visibility: the frame is encoded straight into a temp file that is
// fsynced before a rename onto the final name, and the directory is
// fsynced after, so a crash at any point leaves either the old file or
// the new one — never a torn mixture, never a name pointing at
// unflushed data.
func writeSnapshotFile(dir string, snap *wire.Snapshot) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := snapshotFileName(snap.ID)
	tmp, err := os.CreateTemp(dir, name+".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) //nolint:errcheck // no-op after successful rename
	if err := wire.WriteSnapshot(tmp, snap); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmpName, filepath.Join(dir, name)); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

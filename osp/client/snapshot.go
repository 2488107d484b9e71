package client

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
)

// Snapshot quiesces the instance on the server and returns its binary
// snapshot frame (POST /v1/instances/{id}/snapshot) — the instance's
// full recoverable state. Hand the frame to Client.Restore (on this
// server or another) to rebuild the instance under the same ID with its
// stream position intact; a server running with -snapshot-dir also
// persists the frame on disk as a side effect of this call.
func (in *Instance) Snapshot(ctx context.Context) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, "POST", in.c.base+"/v1/instances/"+in.id+"/snapshot", nil)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	resp, err := in.c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("client: snapshot %s: %w", in.id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, apiError(resp)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("client: read snapshot %s: %w", in.id, err)
	}
	return raw, nil
}

// Restore rebuilds an instance on the server from a snapshot frame
// (POST /v1/instances with the snapshot content type) and returns its
// handle. The instance resumes under its original ID: a half-ingested
// stream continues exactly where the snapshot left it, and the eventual
// drain is bit-for-bit what the uninterrupted instance would have
// reported.
func (c *Client) Restore(ctx context.Context, frame []byte) (*Instance, error) {
	return c.postFrame(ctx, bytes.NewReader(frame), int64(len(frame)))
}

// Instance reattaches a handle to an instance that already exists on
// the server — the resume path after a server restart restored the
// instance from its snapshot directory, when this process never held
// (or lost) the original handle. The ID is verified against the server.
func (c *Client) Instance(ctx context.Context, id string) (*Instance, error) {
	var st Status
	if err := c.doJSON(ctx, "GET", "/v1/instances/"+id, &st); err != nil {
		return nil, err
	}
	return &Instance{c: c, id: st.ID, shards: st.Shards, policy: st.Policy}, nil
}

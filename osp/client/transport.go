package client

import (
	"context"
	"fmt"
	"io"

	"repro/osp"
)

// IngestAuto streams one batch like IngestFunc over the transport the
// client is configured for: with a stream address (WithStreamAddr) the
// first call dials it and pins a long-lived verdict stream for this
// instance; without one, the batch goes over HTTP in the client's codec.
// A dial or handshake failure is returned, not papered over — WithRetry
// retries it as a transport error, and the next call dials again. A
// server that speaks the stream protocol but refuses the instance (an
// Error frame) surfaces as *APIError.
//
// fn (nil allowed: verdicts are discarded) runs once per element, in
// batch order, with the parent sets the element was admitted to; the
// admitted slice is reused scratch, valid
// only during the callback. IngestAuto serializes concurrent callers on
// the instance's transport mutex (the pinned stream is a single
// in-order connection); after a terminal stream error the connection is
// closed and the next call re-dials. Call Close when done to release a
// pinned stream gracefully.
//
// With WithRetry configured, a terminal stream error drops the pinned
// connection and the retry re-dials it — the reconnect path a node
// failover rides through. Callbacks are buffered per attempt and fire
// only after an attempt succeeds, so a mid-stream reconnect never
// delivers a verdict twice and never delivers them out of batch order.
func (in *Instance) IngestAuto(ctx context.Context, els []osp.Element, fn func(i int, admitted []osp.SetID)) error {
	if fn == nil {
		fn = func(int, []osp.SetID) {} // verdicts wanted for their side effect only
	}
	in.tmu.Lock()
	defer in.tmu.Unlock()
	if in.c.retry == nil {
		return in.ingestAutoOnce(ctx, els, fn)
	}
	buf := verdictBufPool.Get().(*verdictBuf)
	defer verdictBufPool.Put(buf)
	err := in.c.withRetry(ctx, func(ctx context.Context) error {
		buf.reset()
		return in.ingestAutoOnce(ctx, els, buf.collect)
	})
	if err != nil {
		return err
	}
	buf.flush(fn)
	return nil
}

// ingestAutoOnce is one attempt on the configured transport; the
// caller holds tmu.
func (in *Instance) ingestAutoOnce(ctx context.Context, els []osp.Element, fn func(i int, admitted []osp.SetID)) error {
	if in.c.streamAddr == "" {
		return in.ingestFuncOnce(ctx, els, fn)
	}
	if in.pinned == nil {
		st, err := in.OpenStream(ctx)
		if err != nil {
			return err
		}
		in.pinned = st
	}
	if err := in.pinned.Send(els); err != nil {
		return in.dropPinned(err)
	}
	if err := in.pinned.Recv(fn); err != nil {
		return in.dropPinned(err)
	}
	return nil
}

// dropPinned tears down the pinned stream after a terminal error; the
// next IngestAuto re-dials.
func (in *Instance) dropPinned(err error) error {
	in.pinned.Close() //nolint:errcheck // the stream is already broken
	in.pinned = nil
	return err
}

// StreamConnElements reports, per striped stream connection, how many
// elements IngestAuto's pinned stream has sent down it — the
// observable stripe balance for loadgen reporting. Nil when no stream
// is pinned (no stream address, or before the first IngestAuto).
func (in *Instance) StreamConnElements() []uint64 {
	in.tmu.Lock()
	defer in.tmu.Unlock()
	if in.pinned == nil {
		return nil
	}
	return in.pinned.ConnElements()
}

// Close releases the instance's pinned stream, if IngestAuto opened
// one, with a clean half-close handshake (every pipelined batch is
// answered before the server confirms). The instance handle itself
// stays usable — the next IngestAuto re-dials. Safe to call when no
// stream is pinned.
func (in *Instance) Close() error {
	in.tmu.Lock()
	defer in.tmu.Unlock()
	if in.pinned == nil {
		return nil
	}
	st := in.pinned
	in.pinned = nil
	err := st.CloseSend()
	for err == nil {
		err = st.Recv(func(int, []osp.SetID) {})
	}
	if cerr := st.Close(); cerr != nil && err == io.EOF {
		err = cerr
	}
	if err != nil && err != io.EOF {
		return fmt.Errorf("client: close stream: %w", err)
	}
	return nil
}

package client

import (
	"context"
	"fmt"
	"io"
	"net/http"

	"repro/osp"
)

// IngestFunc streams one batch like Ingest but delivers verdicts
// through a callback instead of materializing []Verdict — fn (nil
// allowed: verdicts are discarded) runs once per element, in batch
// order, with the parent sets the element was admitted to. The
// admitted slice is reused scratch, valid only during the callback.
//
// Under the default CodecBinary the batch rides the instance's pinned
// verdict stream: the first call opens it (OpenStream: the stream
// listener when WithStreamAddr is set, else an upgrade of the base
// URL's connection) and later calls reuse it, so the whole round trip
// runs on pooled buffers. Concurrent callers serialize on the instance,
// since the pinned stream is one in-order connection. ctx's deadline
// and cancellation bind to the connection for the call; when either
// fires, or the stream fails, the stream is dropped and the next call
// dials again. A dial or handshake failure is returned, not papered
// over; a server that refuses the upgrade or the instance surfaces as
// *APIError. Call Close when done to release the stream gracefully.
// Under CodecJSON the batch is one JSON request.
//
// With WithRetry configured, attempts buffer their callbacks and fn
// fires only after an attempt succeeds — each element exactly once, in
// batch order, no matter how many retries or re-dials the batch rode
// through.
//
// An empty batch is refused up front, under either codec, with the 400
// *APIError the server answers a JSON one: it never reaches the wire,
// so it cannot cost the pinned stream.
func (in *Instance) IngestFunc(ctx context.Context, els []osp.Element, fn func(i int, admitted []osp.SetID)) error {
	if len(els) == 0 {
		return &APIError{StatusCode: http.StatusBadRequest, Message: "ingest: empty batch"}
	}
	if fn == nil {
		fn = func(int, []osp.SetID) {} // verdicts wanted for their side effect only
	}
	if in.c.codec != CodecJSON {
		in.tmu.Lock()
		defer in.tmu.Unlock()
	}
	if in.c.retry == nil {
		return in.ingestFuncOnce(ctx, els, fn)
	}
	buf := verdictBufPool.Get().(*verdictBuf)
	defer verdictBufPool.Put(buf)
	err := in.c.withRetry(ctx, func(ctx context.Context) error {
		buf.reset()
		return in.ingestFuncOnce(ctx, els, buf.collect)
	})
	if err != nil {
		return err
	}
	buf.flush(fn)
	return nil
}

// ingestFuncOnce is one attempt on the codec's arm, retry policy
// excluded; for the stream the caller holds tmu.
func (in *Instance) ingestFuncOnce(ctx context.Context, els []osp.Element, fn func(i int, admitted []osp.SetID)) error {
	if in.c.codec == CodecJSON {
		return in.ingestFuncJSON(ctx, els, fn)
	}
	return in.ingestStreamOnce(ctx, els, fn)
}

// ingestFuncJSON adapts the JSON arm to the callback shape.
func (in *Instance) ingestFuncJSON(ctx context.Context, els []osp.Element, fn func(i int, admitted []osp.SetID)) error {
	verdicts, err := in.ingestJSON(ctx, els)
	if err != nil {
		return err
	}
	if len(verdicts) != len(els) {
		return fmt.Errorf("client: %d verdicts for %d elements", len(verdicts), len(els))
	}
	for i, v := range verdicts {
		fn(i, v.Admitted)
	}
	return nil
}

// ingestStreamOnce is one attempt over the pinned stream.
func (in *Instance) ingestStreamOnce(ctx context.Context, els []osp.Element, fn func(i int, admitted []osp.SetID)) error {
	if in.pinned == nil {
		st, err := in.OpenStream(ctx)
		if err != nil {
			return err
		}
		in.pinned = st
	}
	st := in.pinned
	stop := bind(ctx, st.fc)
	err := st.Send(els)
	if err == nil {
		err = st.Recv(fn)
	}
	if !unbind(st.fc, stop) && err == nil {
		// Canceled just as the batch landed: the expired deadline
		// stays on the connection, so retire it; the next call re-dials.
		in.dropPinned()
		return nil
	}
	if err != nil {
		in.dropPinned()
		return ctxErr(ctx, err)
	}
	return nil
}

// dropPinned closes the pinned stream without a goodbye — after a
// terminal error, a spent deadline, or at Drain once every batch it
// carried is answered; the next binary ingest re-dials.
func (in *Instance) dropPinned() {
	in.pinned.Close() //nolint:errcheck // the stream is already broken
	in.pinned = nil
}

// Close releases the instance's pinned stream, if IngestFunc or Ingest
// opened one, with a clean half-close handshake (every pipelined batch
// is answered before the server confirms). The instance handle itself
// stays usable — the next binary ingest re-dials. Safe to call when no
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

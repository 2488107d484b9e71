package client

import (
	"context"
	"errors"
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
// The batch rides the instance's pinned verdict stream: the first call
// opens it (OpenStream: the stream listener when WithStreamAddr is set,
// else an upgrade of the base URL's connection) and later calls reuse
// it, so the whole round trip runs on pooled buffers. Concurrent callers serialize on the instance,
// since the pinned stream is one in-order connection. ctx's deadline
// and cancellation bind to the connection for the call; when either
// fires, or the stream fails, the stream is dropped and the next call
// dials again. A dial or handshake failure is returned, not papered
// over; a server that refuses the upgrade or the instance surfaces as
// *APIError. Call Close when done to release the stream gracefully.
//
// fn fires for each element at most once, in batch order, however many
// retries or re-dials the batch rode through under WithRetry: an attempt
// is retried only when it failed before any verdict reached fn. The one
// failure that can strike after callbacks have begun, a malformed
// verdict frame, ends the call with fn having run for a prefix of the
// batch.
//
// An empty batch is refused up front with the 400 *APIError the server
// answers a JSON one: it never reaches the wire, so it cannot cost the
// pinned stream.
//
// IngestFunc is IngestShares with one share.
func (in *Instance) IngestFunc(ctx context.Context, els []osp.Element, fn func(i int, admitted []osp.SetID)) error {
	s := [1]Share{{In: in, Els: els, Fn: fn}}
	IngestShares(ctx, s[:])
	return s[0].Err
}

// Share is one instance's batch in an IngestShares call.
type Share struct {
	// In is the instance the batch goes to; its client's retry policy
	// and its pinned stream apply, as for In.IngestFunc.
	In *Instance
	// Els is the batch, in arrival order.
	Els []osp.Element
	// Fn, optional, receives each element's admitted sets, as
	// IngestFunc's fn does, straight from the attempt that decodes them.
	Fn func(i int, admitted []osp.SetID)
	// Err is the share's outcome, set by IngestShares: nil once every
	// element's callback has run, else the error IngestFunc would have
	// returned for the batch.
	Err error

	// The share's attempt in flight, between its send and receive.
	r      retrier
	actx   context.Context
	cancel context.CancelFunc // actx's PerAttempt timeout, nil without one
	stop   func() bool        // bind's, for the receive's unbind
	err    error              // the attempt's error
	held   bool               // In.tmu is locked
}

// IngestShares ingests every share's batch on its instance, each with
// the outcome IngestFunc would give it, from the calling goroutine: it
// sends every share, then receives the shares in order, so the nodes
// behind the instances decide their batches concurrently while the
// caller starts no goroutine and takes no lock per element. Callbacks
// run on the calling goroutine, share by share in order, and each share
// reports its own error.
//
// With WithRetry, a failed share is retried only after every share's
// first attempt has been received: an attempt's PerAttempt deadline is
// bound to its connection when the share is sent, so backing off first
// would let that deadline fail a share whose verdicts are already on
// their way, and a deadline after the batch went out is final.
//
// Each share holds its instance, as IngestFunc does, from its send
// until IngestShares returns. Instances are taken in the order the
// shares list them, so concurrent calls that name the same instances
// must list them in the same order; an instance may appear in only one
// share of a call.
func IngestShares(ctx context.Context, shares []Share) {
	defer func() {
		for k := range shares {
			shares[k].release()
		}
	}()
	for k := range shares {
		s := &shares[k]
		if s.Err = s.check(shares[:k]); s.Err != nil {
			continue
		}
		s.In.tmu.Lock()
		s.held = true
		s.r = s.In.c.newRetrier(ctx)
		s.send()
	}
	for k := range shares {
		if s := &shares[k]; s.Err == nil {
			s.recv()
		}
	}
	for k := range shares {
		s := &shares[k]
		if s.Err != nil {
			continue
		}
		for s.err != nil {
			if s.Err = s.r.again(s.err); s.Err != nil {
				break
			}
			s.send()
			s.recv()
		}
	}
}

// check refuses a share before anything is sent: an empty batch with
// the 400 the server answers a JSON one, and an instance an earlier
// share already holds.
func (s *Share) check(earlier []Share) error {
	if len(s.Els) == 0 {
		return &APIError{StatusCode: http.StatusBadRequest, Message: "ingest: empty batch"}
	}
	for k := range earlier {
		if earlier[k].In == s.In {
			return fmt.Errorf("client: instance %s has two shares in one IngestShares call", s.In.id)
		}
	}
	return nil
}

// send starts the share's next attempt and sends its batch.
func (s *Share) send() {
	s.actx, s.cancel = s.r.start()
	s.stop, s.err = s.In.sendAttempt(s.actx, s.Els)
}

// recv receives the verdicts of the attempt send started into Fn. The
// batch frame is out by then, so a deadline is final: the node may
// still answer, and a resend could ingest the batch twice.
func (s *Share) recv() {
	if s.err == nil {
		s.err = s.In.recvAttempt(s.actx, s.stop, s.fn())
		if errors.Is(s.err, context.DeadlineExceeded) {
			s.err = decidedError{s.err}
		}
	}
	if s.cancel != nil {
		s.cancel()
		s.cancel = nil
	}
}

func (s *Share) fn() func(int, []osp.SetID) {
	if s.Fn == nil {
		return discard
	}
	return s.Fn
}

// discard is the callback of a share that wants no verdicts.
func discard(int, []osp.SetID) {}

// release ends the share's part in the call: its attempt timer, retry
// budget and instance.
func (s *Share) release() {
	if s.cancel != nil {
		s.cancel()
	}
	s.r.close()
	if s.held {
		s.In.tmu.Unlock()
	}
	s.r, s.actx, s.cancel, s.stop, s.held = retrier{}, nil, nil, nil, false
}

// sendAttempt is the first half of one attempt: it opens the pinned
// stream if none is open, binds ctx to its connection and sends els;
// the caller holds tmu through recvAttempt.
func (in *Instance) sendAttempt(ctx context.Context, els []osp.Element) (stop func() bool, err error) {
	if in.pinned == nil {
		st, err := in.OpenStream(ctx)
		if err != nil {
			return nil, err
		}
		in.pinned = st
	}
	stop = bind(ctx, in.pinned.fc)
	if err := in.pinned.Send(els); err != nil {
		return nil, in.endAttempt(ctx, stop, err)
	}
	return stop, nil
}

// recvAttempt is the second half of the attempt sendAttempt began: it
// delivers the batch's verdicts to fn.
func (in *Instance) recvAttempt(ctx context.Context, stop func() bool, fn func(i int, admitted []osp.SetID)) error {
	return in.endAttempt(ctx, stop, in.pinned.Recv(fn))
}

// endAttempt unbinds ctx from the pinned stream and retires the stream
// when the attempt failed or its deadline is spent.
func (in *Instance) endAttempt(ctx context.Context, stop func() bool, err error) error {
	if !unbind(in.pinned.fc, stop) && err == nil {
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
// carried is answered; the next ingest re-dials.
func (in *Instance) dropPinned() {
	in.pinned.Close() //nolint:errcheck // the stream is already broken
	in.pinned = nil
}

// Close releases the instance's pinned stream, if IngestFunc or Ingest
// opened one, with a clean half-close handshake (every pipelined batch
// is answered before the server confirms). The instance handle itself
// stays usable — the next ingest re-dials. Safe to call when no
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

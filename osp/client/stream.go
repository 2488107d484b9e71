package client

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stream"
	"repro/internal/wire"
	"repro/osp"
)

// The stream transport: one long-lived TCP connection to the server's
// -stream-listen port, carrying pipelined binary batch frames instead
// of one HTTP request per batch. Registration, drain and removal stay
// on the HTTP API — the stream carries only the hot path, element
// batches and their verdicts. Verdict frames are decoded in place
// against the elements the caller sent: the per-element callback
// receives a reused admitted slice, so a steady-state Send/Recv loop
// allocates nothing per element — the []Verdict materialization of
// Ingest, today's dominant client-side allocation, never happens.

// ErrWindowFull is returned by Stream.Send when the pipelining window
// is exhausted: Recv must consume a verdict frame before another batch
// may go out.
var ErrWindowFull = errors.New("client: stream window full (Recv before Send)")

// WithStreamAddr sets the host:port of the server's raw-TCP stream
// listener (ospserve -stream-listen), enabling Instance.OpenStream.
func WithStreamAddr(addr string) Option {
	return func(c *Client) { c.streamAddr = addr }
}

// WithStreamConns stripes each verdict stream over n TCP connections
// (default 1). Batches are distributed round-robin — batch k rides
// connection k mod n with its own per-connection sequence numbers —
// and Recv restores global submit order, so the caller-visible
// contract is unchanged: verdict callbacks fire in the exact order the
// batches were sent. What changes is the parallelism underneath: each
// connection has its own server-side read loop, ingest lane and
// pipeline window (the effective window is n × the server's per-
// connection grant), so one producer can keep several engine shards
// busy at once. Values below 1 mean 1.
func WithStreamConns(n int) Option {
	return func(c *Client) { c.streamConns = n }
}

// Stream is one pipelined verdict stream, opened with
// Instance.OpenStream — one TCP connection by default, striped over N
// connections with WithStreamConns. Up to Window batches may be in
// flight: Send errors with ErrWindowFull when the window is exhausted,
// so a producer runs the classic pipeline dance — Send until full,
// then alternate Recv/Send, then drain with CloseSend + Recv-to-EOF.
// The elements passed to Send must stay unmodified until their Recv:
// verdict masks are decoded against them.
//
// Striping is invisible in the contract: batch k rides connection
// k mod N under per-connection sequence numbers, and Recv reads
// connection k mod N when global batch k is the oldest unanswered —
// each connection delivers its verdicts in its own send order (TCP
// FIFO through the server's seq-ordered writer), so this single read
// position restores exact global submit order with no reorder buffer.
//
// A Stream is not safe for concurrent use. Errors other than
// ErrWindowFull are terminal for the stream; Close the stream and open
// a fresh one.
type Stream struct {
	in     *Instance
	conns  []*stream.Conn
	window int // global: per-connection server grant × len(conns)
	policy string

	pending  [][]osp.Element // ring of unanswered batches, len = window
	head     int             // ring index of the oldest unanswered batch
	count    int             // unanswered batches
	sendSeq  uint32          // next global batch sequence = batches sent
	recvSeq  uint32          // next global verdict sequence expected
	finSent  bool
	finsRecv int         // server fin confirmations collected after CloseSend
	connEls  []uint64    // elements sent per connection
	admitted []osp.SetID // reused callback scratch
	err      error       // sticky terminal error
	closed   atomic.Bool
}

// dialStreamConn dials one stream connection and runs the handshake,
// returning the framed connection with the server's window grant and
// resolved policy name.
func dialStreamConn(ctx context.Context, addr, id string) (*stream.Conn, uint32, string, error) {
	var d net.Dialer
	nc, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, 0, "", fmt.Errorf("client: dial stream %s: %w", addr, err)
	}
	if dl, ok := ctx.Deadline(); ok {
		nc.SetDeadline(dl) //nolint:errcheck // handshake-scoped, cleared below
	}
	fc := stream.NewConn(nc, 0)
	if err := fc.WriteFrame(stream.FrameHello, 0, stream.AppendHello(nil, id)); err != nil {
		nc.Close()
		return nil, 0, "", fmt.Errorf("client: stream hello: %w", err)
	}
	if err := fc.Flush(); err != nil {
		nc.Close()
		return nil, 0, "", fmt.Errorf("client: stream hello: %w", err)
	}
	typ, _, payload, err := fc.ReadFrame()
	if err != nil {
		nc.Close()
		return nil, 0, "", fmt.Errorf("client: stream handshake: %w", err)
	}
	if typ == stream.FrameError {
		msg := string(payload)
		nc.Close()
		return nil, 0, "", &APIError{StatusCode: http.StatusBadRequest, Message: msg}
	}
	if typ != stream.FrameAck {
		nc.Close()
		return nil, 0, "", fmt.Errorf("client: stream handshake answered with frame %c, want ack", typ)
	}
	window, policy, err := stream.ParseAck(payload)
	if err != nil {
		nc.Close()
		return nil, 0, "", fmt.Errorf("client: stream handshake: %w", err)
	}
	nc.SetDeadline(time.Time{}) //nolint:errcheck
	return fc, window, policy, nil
}

// OpenStream dials the server's stream listener (WithStreamAddr) — one
// connection, or WithStreamConns of them — and runs the handshake for
// this instance on each. The returned Stream pins Instance.Codec to
// "stream" until it is closed.
func (in *Instance) OpenStream(ctx context.Context) (*Stream, error) {
	addr := in.c.streamAddr
	if addr == "" {
		return nil, errors.New("client: no stream address configured (WithStreamAddr)")
	}
	n := in.c.streamConns
	if n < 1 {
		n = 1
	}
	conns := make([]*stream.Conn, 0, n)
	window := uint32(0)
	policy := ""
	for i := 0; i < n; i++ {
		fc, w, pol, err := dialStreamConn(ctx, addr, in.id)
		if err != nil {
			for _, c := range conns {
				c.Close()
			}
			return nil, err
		}
		conns = append(conns, fc)
		// The grants should agree (one server config); hold every
		// connection to the smallest so no single pipe is overrun.
		if window == 0 || w < window {
			window = w
		}
		policy = pol
	}
	in.streams.Add(1)
	return &Stream{
		in:      in,
		conns:   conns,
		window:  int(window) * n,
		policy:  policy,
		pending: make([][]osp.Element, int(window)*n),
		connEls: make([]uint64, n),
	}, nil
}

// Window returns the pipelining window: the maximum number of
// unanswered batches this stream may have in flight — the server's
// per-connection grant times the number of striped connections.
func (s *Stream) Window() int { return s.window }

// Outstanding returns the number of batches sent but not yet answered.
func (s *Stream) Outstanding() int { return s.count }

// Conns returns the number of TCP connections this stream stripes
// over (WithStreamConns; 1 by default).
func (s *Stream) Conns() int { return len(s.conns) }

// ConnElements returns the number of elements sent over each striped
// connection so far — the per-connection balance a load generator
// reports to show the stripes actually carried traffic.
func (s *Stream) ConnElements() []uint64 {
	return append([]uint64(nil), s.connEls...)
}

// Policy returns the instance's resolved admission-policy name as
// announced by the server's stream handshake.
func (s *Stream) Policy() string { return s.policy }

// Send pipelines one batch of elements in arrival order. It returns
// ErrWindowFull when Window batches are unanswered — Recv first — and
// fails after CloseSend. The els slice is retained until the matching
// Recv decodes its verdicts against it.
func (s *Stream) Send(els []osp.Element) error {
	switch {
	case s.err != nil:
		return s.err
	case s.finSent:
		return errors.New("client: Send after CloseSend")
	case len(els) == 0:
		return errors.New("client: empty batch")
	case s.count == s.window:
		return ErrWindowFull
	}
	bufp := framePool.Get().(*[]byte)
	frame := wire.AppendElements((*bufp)[:0], els)
	*bufp = frame
	// Batch k rides connection k mod N with that connection's own
	// sequence numbering (k div N): each stripe is a self-contained
	// stream to the server.
	n := uint32(len(s.conns))
	ci := int(s.sendSeq % n)
	fc := s.conns[ci]
	err := fc.WriteFrame(stream.FrameBatch, s.sendSeq/n, frame)
	if err == nil {
		err = fc.Flush()
	}
	framePool.Put(bufp)
	if err != nil {
		s.err = fmt.Errorf("client: stream send: %w", err)
		return s.err
	}
	s.pending[(s.head+s.count)%s.window] = els
	s.connEls[ci] += uint64(len(els))
	s.count++
	s.sendSeq++
	return nil
}

// Recv blocks for the next verdict frame — answering the OLDEST
// unanswered Send — and invokes fn once per element of that batch, in
// batch order, with the parent sets the element was admitted to. The
// admitted slice is reused scratch, valid only during the callback;
// copy it to retain. After CloseSend, Recv returns io.EOF once every
// pipelined batch has been answered.
func (s *Stream) Recv(fn func(i int, admitted []osp.SetID)) error {
	if s.err != nil {
		return s.err
	}
	n := uint32(len(s.conns))
	if s.finSent && s.count == 0 {
		// Every batch is answered: collect each connection's fin
		// confirmation (the next frame on each stripe), then EOF.
		for ; s.finsRecv < len(s.conns); s.finsRecv++ {
			typ, _, payload, err := s.conns[s.finsRecv].ReadFrame()
			switch {
			case err != nil:
				s.err = fmt.Errorf("client: stream recv: %w", err)
				return s.err
			case typ == stream.FrameError:
				s.err = &APIError{StatusCode: http.StatusBadRequest, Message: string(payload)}
				return s.err
			case typ != stream.FrameFin:
				s.err = fmt.Errorf("client: unexpected stream frame %c, want fin", typ)
				return s.err
			}
		}
		s.err = io.EOF
		return io.EOF
	}
	// Global batch recvSeq rides connection recvSeq mod N, and that
	// connection's frames arrive in its own send order — so reading
	// here, and only here, restores global submit order.
	fc := s.conns[int(s.recvSeq%n)]
	typ, seq, payload, err := fc.ReadFrame()
	if err != nil {
		s.err = fmt.Errorf("client: stream recv: %w", err)
		return s.err
	}
	switch typ {
	case stream.FrameVerdicts:
		if s.count == 0 {
			s.err = fmt.Errorf("client: verdict frame %d with no batch in flight", seq)
			return s.err
		}
		if seq != s.recvSeq/n {
			s.err = fmt.Errorf("client: verdict frame %d, want %d", seq, s.recvSeq/n)
			return s.err
		}
		els := s.pending[s.head]
		s.pending[s.head] = nil
		s.head = (s.head + 1) % s.window
		s.count--
		s.recvSeq++
		if err := s.decodeVerdicts(payload, els, fn); err != nil {
			s.err = err
			return s.err
		}
		return nil
	case stream.FrameFin:
		if s.count != 0 {
			s.err = fmt.Errorf("client: server finished with %d batches unanswered", s.count)
			return s.err
		}
		s.err = io.EOF
		return io.EOF
	case stream.FrameError:
		s.err = &APIError{StatusCode: http.StatusBadRequest, Message: string(payload)}
		return s.err
	default:
		s.err = fmt.Errorf("client: unexpected stream frame %c", typ)
		return s.err
	}
}

// decodeVerdicts walks one verdicts frame in place against the batch
// it answers, reusing the stream's admitted scratch.
func (s *Stream) decodeVerdicts(raw []byte, els []osp.Element, fn func(i int, admitted []osp.SetID)) error {
	payload, count, err := wire.DecodeVerdicts(raw)
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	if count != len(els) {
		return fmt.Errorf("client: verdicts frame counts %d elements, batch sent %d", count, len(els))
	}
	for i, el := range els {
		var mask []byte
		mask, payload, err = wire.MaskAt(payload, len(el.Members))
		if err != nil {
			return fmt.Errorf("client: element %d: %w", i, err)
		}
		admitted, err := wire.AppendAdmitted(s.admitted[:0], mask, el.Members)
		if err != nil {
			return fmt.Errorf("client: element %d: %w", i, err)
		}
		s.admitted = admitted
		fn(i, admitted)
	}
	if len(payload) != 0 {
		return fmt.Errorf("client: %d verdict mask bytes left over after the last element", len(payload))
	}
	return nil
}

// CloseSend half-closes the stream: no more batches will be sent. The
// server answers every pipelined batch, then confirms; keep calling
// Recv until io.EOF to collect the tail.
func (s *Stream) CloseSend() error {
	if s.err != nil {
		return s.err
	}
	if s.finSent {
		return nil
	}
	s.finSent = true
	// Each stripe gets its own fin carrying the count of batches that
	// rode it: connection c saw batches c, c+N, c+2N, … below sendSeq.
	n := uint32(len(s.conns))
	for c, fc := range s.conns {
		sent := (s.sendSeq + n - 1 - uint32(c)) / n
		if err := fc.WriteFrame(stream.FrameFin, sent, nil); err != nil {
			s.err = fmt.Errorf("client: stream close-send: %w", err)
			return s.err
		}
		if err := fc.Flush(); err != nil {
			s.err = fmt.Errorf("client: stream close-send: %w", err)
			return s.err
		}
	}
	return nil
}

// Close releases the connection. Safe to call more than once; the
// instance's Codec reverts to the client's HTTP codec once no stream
// is open.
func (s *Stream) Close() error {
	if s.closed.CompareAndSwap(false, true) {
		s.in.streams.Add(-1)
		var first error
		for _, fc := range s.conns {
			if err := fc.Close(); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	return nil
}

// funcScratch is the pooled working set of the HTTP IngestFunc path.
type funcScratch struct {
	frame    []byte
	resp     []byte
	admitted []osp.SetID
}

var funcPool = sync.Pool{New: func() any { return new(funcScratch) }}

// IngestFunc streams one batch like Ingest but delivers verdicts
// through a callback instead of materializing []Verdict — fn runs once
// per element, in batch order, with the parent sets the element was
// admitted to. The admitted slice is reused scratch, valid only during
// the callback. Over the binary codec the whole round trip reuses
// pooled buffers.
//
// With WithRetry configured, attempts buffer their callbacks and fn
// fires only after an attempt succeeds — each element exactly once, in
// batch order, no matter how many retries the batch rode through.
func (in *Instance) IngestFunc(ctx context.Context, els []osp.Element, fn func(i int, admitted []osp.SetID)) error {
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

// ingestFuncOnce is one callback-shaped ingest attempt, retry policy
// excluded.
func (in *Instance) ingestFuncOnce(ctx context.Context, els []osp.Element, fn func(i int, admitted []osp.SetID)) error {
	if in.c.codec == CodecJSON {
		return in.ingestFuncJSON(ctx, els, fn)
	}
	return in.ingestFuncBinary(ctx, els, fn)
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

// ingestFuncBinary is the pooled binary arm: request frame, response
// frame and the per-element admitted scratch all come from one pooled
// working set, so nothing is allocated per element.
func (in *Instance) ingestFuncBinary(ctx context.Context, els []osp.Element, fn func(i int, admitted []osp.SetID)) error {
	sc := funcPool.Get().(*funcScratch)
	defer funcPool.Put(sc)
	sc.frame = wire.AppendElements(sc.frame[:0], els)

	req, err := http.NewRequestWithContext(ctx, "POST", in.c.base+"/v1/instances/"+in.id+"/elements", bytes.NewReader(sc.frame))
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	req.Header.Set("Content-Type", wire.ContentTypeBatch)
	resp, err := in.c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("client: POST elements (binary): %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return apiError(resp)
	}
	if ct := resp.Header.Get("Content-Type"); ct != wire.ContentTypeVerdicts {
		return fmt.Errorf("client: binary ingest answered with Content-Type %q, want %q", ct, wire.ContentTypeVerdicts)
	}
	sc.resp, err = readInto(resp.Body, sc.resp[:0])
	if err != nil {
		return fmt.Errorf("client: read verdicts frame: %w", err)
	}
	payload, count, err := wire.DecodeVerdicts(sc.resp)
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	if count != len(els) {
		return fmt.Errorf("client: verdicts frame counts %d elements, batch sent %d", count, len(els))
	}
	for i, el := range els {
		var mask []byte
		mask, payload, err = wire.MaskAt(payload, len(el.Members))
		if err != nil {
			return fmt.Errorf("client: element %d: %w", i, err)
		}
		admitted, err := wire.AppendAdmitted(sc.admitted[:0], mask, el.Members)
		if err != nil {
			return fmt.Errorf("client: element %d: %w", i, err)
		}
		sc.admitted = admitted
		fn(i, admitted)
	}
	if len(payload) != 0 {
		return fmt.Errorf("client: %d verdict mask bytes left over after the last element", len(payload))
	}
	return nil
}

// readInto reads r to EOF appending onto buf, reusing its storage.
func readInto(r io.Reader, buf []byte) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

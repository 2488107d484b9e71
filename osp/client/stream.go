package client

import (
	"bufio"
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stream"
	"repro/internal/wire"
	"repro/osp"
)

// The stream transport, the client's one binary path: one long-lived
// TCP connection carrying pipelined binary batch frames instead of one
// HTTP request per batch. The connection is an HTTP/1.1 Upgrade of the
// server's main listener (GET /v1/stream) by default, or a dial of the
// raw-TCP stream listener when WithStreamAddr names one; either way the
// framing after the handshake is identical. Registration, drain and
// removal stay on the HTTP API — the stream carries only the hot path,
// element batches and their verdicts. Verdict frames are decoded in
// place against the elements the caller sent: the per-element callback
// receives a reused admitted slice, so a steady-state Send/Recv loop
// allocates nothing per element.

// ErrWindowFull is returned by Stream.Send when the pipelining window
// is exhausted: Recv must consume a verdict frame before another batch
// may go out.
var ErrWindowFull = errors.New("client: stream window full (Recv before Send)")

// WithStreamAddr sets the host:port of the server's raw-TCP stream
// listener (ospserve -stream-listen). Streams then dial it directly
// instead of upgrading a connection to the base URL's host.
func WithStreamAddr(addr string) Option {
	return func(c *Client) { c.streamAddr = addr }
}

// Stream is one pipelined verdict stream over one connection, opened
// with Instance.OpenStream. Up to Window batches may be in flight: Send
// errors with ErrWindowFull when the window is exhausted, so a producer
// runs the classic pipeline dance — Send until full, then alternate
// Recv/Send, then drain with CloseSend + Recv-to-EOF. The elements
// passed to Send must stay unmodified until their Recv: verdict masks
// are decoded against them.
//
// A Stream is not safe for concurrent use. Errors other than
// ErrWindowFull are terminal for the stream; Close the stream and open
// a fresh one.
type Stream struct {
	fc     *stream.Conn
	window int
	policy string

	pending  [][]osp.Element // ring of unanswered batches, len = window
	head     int             // ring index of the oldest unanswered batch
	count    int             // unanswered batches
	sendSeq  uint32          // next batch sequence = batches sent
	recvSeq  uint32          // next verdict sequence expected
	finSent  bool
	admitted []osp.SetID // reused callback scratch
	err      error       // sticky terminal error
	closed   atomic.Bool
}

// framePool recycles batch frame buffers across Send calls.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

// OpenStream opens a verdict stream for this instance: it dials the
// stream listener (WithStreamAddr) or upgrades a connection to the base
// URL's host — over TLS for an https base URL — and runs the Hello/Ack
// handshake. ctx bounds the dial and the handshake. A server that
// refuses the upgrade or the instance surfaces as *APIError.
func (in *Instance) OpenStream(ctx context.Context) (*Stream, error) {
	nc, err := in.c.dialStream(ctx)
	if err != nil {
		return nil, err
	}
	stop := bind(ctx, nc)
	fc, window, policy, err := in.handshake(nc)
	if !unbind(nc, stop) && err == nil {
		err = ctx.Err() // canceled as the handshake finished: the deadline is spent
	}
	if err != nil {
		nc.Close()
		return nil, ctxErr(ctx, err)
	}
	return &Stream{
		fc:      fc,
		window:  int(window),
		policy:  policy,
		pending: make([][]osp.Element, window),
	}, nil
}

// dialStream connects to the stream listener when one is configured,
// else to the base URL's host, with TLS for https.
func (c *Client) dialStream(ctx context.Context) (net.Conn, error) {
	var d net.Dialer
	addr := c.streamAddr
	if addr == "" && c.https {
		var cfg *tls.Config // nil: crypto/tls defaults, ServerName from addr
		if t, ok := c.hc.Transport.(*http.Transport); ok && t.TLSClientConfig != nil {
			cfg = t.TLSClientConfig.Clone()
			cfg.NextProtos = nil // the upgrade is HTTP/1.1 only
		}
		nc, err := (&tls.Dialer{NetDialer: &d, Config: cfg}).DialContext(ctx, "tcp", c.host)
		if err != nil {
			return nil, fmt.Errorf("client: dial stream %s: %w", c.host, err)
		}
		return nc, nil
	}
	if addr == "" {
		addr = c.host
	}
	nc, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("client: dial stream %s: %w", addr, err)
	}
	return nc, nil
}

// handshake upgrades nc when it reached the main listener, then runs
// Hello/Ack for this instance, returning the framed connection with
// the server's window grant and resolved policy name.
func (in *Instance) handshake(nc net.Conn) (*stream.Conn, uint32, string, error) {
	if in.c.streamAddr == "" {
		if err := in.c.upgrade(nc); err != nil {
			return nil, 0, "", err
		}
	}
	fc := stream.NewConn(nc, 0)
	if err := fc.WriteFrame(stream.FrameHello, 0, stream.AppendHello(nil, in.id)); err != nil {
		return nil, 0, "", fmt.Errorf("client: stream hello: %w", err)
	}
	if err := fc.Flush(); err != nil {
		return nil, 0, "", fmt.Errorf("client: stream hello: %w", err)
	}
	typ, _, payload, err := fc.ReadFrame()
	switch {
	case err != nil:
		return nil, 0, "", fmt.Errorf("client: stream handshake: %w", err)
	case typ == stream.FrameError:
		return nil, 0, "", errorFrame(payload)
	case typ != stream.FrameAck:
		return nil, 0, "", fmt.Errorf("client: stream handshake answered with frame %c, want ack", typ)
	}
	window, policy, err := stream.ParseAck(payload)
	if err != nil {
		return nil, 0, "", fmt.Errorf("client: stream handshake: %w", err)
	}
	return fc, window, policy, nil
}

// upgrade switches nc, a connection to the main HTTP listener, to the
// stream protocol. Any answer but 101 surfaces as *APIError, so
// WithRetry treats a refused upgrade like any other HTTP status.
func (c *Client) upgrade(nc net.Conn) error {
	req, err := http.NewRequest("GET", c.base+stream.UpgradePath, nil)
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	req.Header.Set("Connection", "Upgrade")
	req.Header.Set("Upgrade", stream.UpgradeToken)
	if err := req.Write(nc); err != nil {
		return fmt.Errorf("client: stream upgrade: %w", err)
	}
	br := bufio.NewReader(nc)
	resp, err := http.ReadResponse(br, req)
	if err != nil {
		return fmt.Errorf("client: stream upgrade: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusSwitchingProtocols {
		return apiError(resp)
	}
	if br.Buffered() != 0 {
		// The server speaks only after Hello; bytes here mean the peer
		// is not the stream protocol.
		return errors.New("client: stream upgrade: server sent data before hello")
	}
	return nil
}

// errorFrame turns a server Error frame into the *APIError carrying the
// status the HTTP API would have answered.
func errorFrame(payload []byte) error {
	status, msg := stream.ParseError(payload)
	return &APIError{StatusCode: status, Message: msg}
}

// bind ties ctx's deadline and cancellation to c for one call: the
// deadline becomes the connection's, and cancellation expires it, so a
// blocked read or write returns. A context that can never be canceled
// (a nil Done, as context.Background) costs nothing.
func bind(ctx context.Context, c interface{ SetDeadline(time.Time) error }) (stop func() bool) {
	if ctx.Done() == nil {
		return nil
	}
	if dl, ok := ctx.Deadline(); ok {
		c.SetDeadline(dl) //nolint:errcheck // a closed conn fails the call anyway
	}
	return context.AfterFunc(ctx, func() {
		c.SetDeadline(time.Unix(1, 0)) //nolint:errcheck // wake the blocked call
	})
}

// unbind undoes bind. False means cancellation already fired: the
// connection's deadline is expired and the connection is spent.
func unbind(c interface{ SetDeadline(time.Time) error }, stop func() bool) bool {
	if stop == nil {
		return true
	}
	if !stop() {
		return false
	}
	c.SetDeadline(time.Time{}) //nolint:errcheck
	return true
}

// ctxErr reports a call the bound context cut short as the context's
// error too, so errors.Is(err, context.DeadlineExceeded) holds for a
// blackholed stream as it does for an HTTP request.
func ctxErr(ctx context.Context, err error) error {
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		return err
	}
	cerr := ctx.Err()
	if cerr == nil {
		cerr = context.DeadlineExceeded // the conn deadline fired a hair before ctx's timer
	}
	return fmt.Errorf("client: stream: %w: %w", cerr, err)
}

// Window returns the pipelining window: the maximum number of
// unanswered batches this stream may have in flight.
func (s *Stream) Window() int { return s.window }

// Outstanding returns the number of batches sent but not yet answered.
func (s *Stream) Outstanding() int { return s.count }

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
	err := s.fc.WriteFrame(stream.FrameBatch, s.sendSeq, frame)
	if err == nil {
		err = s.fc.Flush()
	}
	framePool.Put(bufp)
	if err != nil {
		s.err = fmt.Errorf("client: stream send: %w", err)
		return s.err
	}
	s.pending[(s.head+s.count)%s.window] = els
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
	typ, seq, payload, err := s.fc.ReadFrame()
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
		if seq != s.recvSeq {
			s.err = fmt.Errorf("client: verdict frame %d, want %d", seq, s.recvSeq)
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
		s.err = errorFrame(payload)
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
	err := s.fc.WriteFrame(stream.FrameFin, s.sendSeq, nil)
	if err == nil {
		err = s.fc.Flush()
	}
	if err != nil {
		s.err = fmt.Errorf("client: stream close-send: %w", err)
	}
	return s.err
}

// Close releases the connection. Safe to call more than once.
func (s *Stream) Close() error {
	if s.closed.CompareAndSwap(false, true) {
		return s.fc.Close()
	}
	return nil
}

// Package stream is the framed long-lived transport for the admission
// service: one connection carrying back-to-back internal/wire batch
// frames, each wrapped in a 9-byte envelope with a sequence number, with
// verdict frames returned in batch order as shards complete. It is the
// amortization move of the paper's lineage applied to the transport —
// the per-request cost the HTTP arm pays per 4096-element batch
// (connection bookkeeping, header parse, scratch checkout) is paid once
// per connection here and amortized over the whole stream.
//
// The package is deliberately tiny and policy-free: framing, the
// handshake payloads, and a buffered connection wrapper that reuses its
// read buffer so a steady-state read loop allocates nothing. The batch
// and verdict payloads themselves are internal/wire frames, unchanged —
// the stream envelope adds exactly (type, seq, length).
//
// Protocol, client side first:
//
//	(HTTP/1.1 GET /v1/stream, Upgrade: osp-stream → 101, when the
//	 stream shares the server's main listener; a raw stream port
//	 starts directly with Hello)
//	C→S  Hello  (seq 0, payload "OSPS" + version + instance id)
//	S→C  Ack    (seq 0, payload version + window + policy name)
//	C→S  Batch  (seq k, payload one wire OSPB frame)   — at most
//	            `window` unanswered batches in flight
//	S→C  Verdicts (seq k, payload one wire OSPV frame) — in seq order
//	C→S  Fin    (seq = number of batches sent)
//	S→C  Fin    (after every pending verdict is written)
//
// Either side may end the stream with an Error frame (UTF-8 message; the
// server's carries an HTTP status prefix, AppendError);
// the server routes it through the same seq-ordered writer as verdicts,
// so every batch read before the error still gets its verdicts first.
package stream

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"
)

// Version is the stream protocol version this package speaks.
const Version = 1

// HeaderLen is the fixed envelope size: type byte, uint32 sequence
// number, uint32 payload length (both little-endian).
const HeaderLen = 9

// MaxWindow is the largest pipelining window an Ack may announce. The
// server clamps its configured window to it and ParseAck rejects larger
// ones, so a peer cannot make the client size its in-flight ring from
// an arbitrary uint32.
const MaxWindow = 1024

// The HTTP/1.1 entry to the protocol on a server's main listener: a GET
// of UpgradePath with "Connection: Upgrade" and "Upgrade: UpgradeToken"
// is answered 101 Switching Protocols, after which the connection
// speaks exactly the framing below, Hello first.
const (
	UpgradePath  = "/v1/stream"
	UpgradeToken = "osp-stream"
)

// Frame types. Hello/Ack handshake, Batch/Verdicts data plane,
// Error/Fin teardown.
const (
	FrameHello    = 'H' // client → server, first frame on the wire
	FrameAck      = 'A' // server → client, accepts the stream
	FrameBatch    = 'B' // payload: one wire batch frame (OSPB)
	FrameVerdicts = 'V' // payload: one wire verdicts frame (OSPV), seq echoes the batch
	FrameError    = 'E' // terminal; payload: UTF-8 message
	FrameFin      = 'F' // half-close; seq carries the batch count sent
)

// magicHello tags the Hello payload so a stray client speaking another
// protocol fails the handshake instead of being misparsed.
var magicHello = [4]byte{'O', 'S', 'P', 'S'}

// Errors reported by the framing layer; match with errors.Is.
var (
	// ErrFrame is a structurally malformed envelope or handshake payload.
	ErrFrame = errors.New("stream: malformed frame")
	// ErrVersion is a well-formed frame of an unsupported version.
	ErrVersion = errors.New("stream: unsupported version")
	// ErrTooLarge is a frame whose declared payload exceeds the
	// connection's limit — refused before any of it is read.
	ErrTooLarge = errors.New("stream: frame exceeds payload limit")
)

// Conn wraps a network connection with buffered framed I/O. The read
// path reuses one growing payload buffer, so a steady-state frame loop
// allocates nothing; the returned payload is valid only until the next
// ReadFrame. Conn is not safe for concurrent use of the same direction,
// but one reader goroutine and one writer goroutine may share it: the
// read and write halves touch disjoint state.
type Conn struct {
	raw        net.Conn
	br         *bufio.Reader
	bw         *bufio.Writer
	rhdr, whdr [HeaderLen]byte
	payload    []byte
	max        int
}

// NewConn wraps nc. maxPayload bounds the payload length this side is
// willing to read (writes are unchecked — the peer enforces its own
// bound); 0 means a 256 MiB default matching the HTTP arm's body limit.
func NewConn(nc net.Conn, maxPayload int) *Conn {
	if maxPayload <= 0 {
		maxPayload = 256 << 20
	}
	return &Conn{
		raw: nc,
		br:  bufio.NewReaderSize(nc, 256<<10),
		bw:  bufio.NewWriterSize(nc, 256<<10),
		max: maxPayload,
	}
}

// ReadFrame reads the next envelope and its payload. The payload slice
// aliases the connection's reusable buffer: it is valid until the next
// ReadFrame and must not be retained.
func (c *Conn) ReadFrame() (typ byte, seq uint32, payload []byte, err error) {
	typ, seq, n, err := c.ReadHeader()
	if err != nil {
		return 0, 0, nil, err
	}
	payload, err = c.ReadPayload(n)
	if err != nil {
		return 0, 0, nil, err
	}
	return typ, seq, payload, nil
}

// ReadHeader reads and validates the next envelope header only,
// returning the declared payload length without reading it. The caller
// must consume exactly n payload bytes next — ReadPayload for the
// connection's shared buffer, or ReadPayloadInto to place the bytes
// into caller-owned memory (the zero-copy ingest path, which reads
// batch payloads straight into aligned engine-batch backing buffers).
func (c *Conn) ReadHeader() (typ byte, seq uint32, n int, err error) {
	if _, err := io.ReadFull(c.br, c.rhdr[:]); err != nil {
		return 0, 0, 0, err
	}
	typ = c.rhdr[0]
	switch typ {
	case FrameHello, FrameAck, FrameBatch, FrameVerdicts, FrameError, FrameFin:
	default:
		return 0, 0, 0, fmt.Errorf("%w: unknown frame type 0x%02x", ErrFrame, typ)
	}
	seq = binary.LittleEndian.Uint32(c.rhdr[1:])
	ln := binary.LittleEndian.Uint32(c.rhdr[5:])
	if uint64(ln) > uint64(c.max) {
		return 0, 0, 0, fmt.Errorf("%w: %d bytes declared, limit %d", ErrTooLarge, ln, c.max)
	}
	return typ, seq, int(ln), nil
}

// ReadPayload reads an n-byte payload announced by ReadHeader into the
// connection's reusable buffer. The returned slice is valid until the
// next read and must not be retained.
func (c *Conn) ReadPayload(n int) ([]byte, error) {
	if cap(c.payload) < n {
		c.payload = make([]byte, n)
	}
	payload := c.payload[:n]
	if err := c.ReadPayloadInto(payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// ReadPayloadInto reads len(buf) payload bytes announced by ReadHeader
// directly into buf — the caller owns placement, which is what lets a
// reader land a batch frame at an alignment the zero-copy decoder can
// alias.
func (c *Conn) ReadPayloadInto(buf []byte) error {
	if _, err := io.ReadFull(c.br, buf); err != nil {
		// A truncated payload is a protocol error, not a clean EOF.
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	return nil
}

// WriteFrame appends one envelope + payload to the write buffer. Call
// Flush to push buffered frames to the wire; a pipelined writer flushes
// once per burst, not per frame.
func (c *Conn) WriteFrame(typ byte, seq uint32, payload []byte) error {
	c.whdr[0] = typ
	binary.LittleEndian.PutUint32(c.whdr[1:], seq)
	binary.LittleEndian.PutUint32(c.whdr[5:], uint32(len(payload)))
	if _, err := c.bw.Write(c.whdr[:]); err != nil {
		return err
	}
	_, err := c.bw.Write(payload)
	return err
}

// Flush pushes buffered frames to the wire.
func (c *Conn) Flush() error { return c.bw.Flush() }

// SetReadDeadline sets the deadline for future and in-progress reads on
// the underlying connection — the drain path uses it to bound how long
// a quiet connection may hold shutdown, and to unblock a reader whose
// writer died.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.raw.SetReadDeadline(t) }

// SetDeadline sets the read and write deadlines of the underlying
// connection — the client binds a call's context to the stream with it.
func (c *Conn) SetDeadline(t time.Time) error { return c.raw.SetDeadline(t) }

// Close closes the underlying connection without flushing.
func (c *Conn) Close() error { return c.raw.Close() }

// AppendHello builds the Hello payload: magic, version, instance id.
func AppendHello(dst []byte, instance string) []byte {
	dst = append(dst, magicHello[:]...)
	dst = append(dst, Version)
	return append(dst, instance...)
}

// ParseHello validates a Hello payload and returns the instance id.
func ParseHello(payload []byte) (instance string, err error) {
	if len(payload) < 5 {
		return "", fmt.Errorf("%w: hello payload %d bytes, want at least 5", ErrFrame, len(payload))
	}
	if [4]byte(payload[:4]) != magicHello {
		return "", fmt.Errorf("%w: bad hello magic %q", ErrFrame, payload[:4])
	}
	if payload[4] != Version {
		return "", fmt.Errorf("%w: version %d, this side speaks %d", ErrVersion, payload[4], Version)
	}
	return string(payload[5:]), nil
}

// AppendError builds a server Error payload: the HTTP status the
// condition maps to (404 unknown instance, 409 drained, 413 frame too
// large, 503 shutting down, 400 otherwise) as three digits and a space,
// then the UTF-8 message — so a client surfaces the same status the
// HTTP API would answer, and retries by the same rule.
func AppendError(dst []byte, status int, msg string) []byte {
	dst = strconv.AppendInt(dst, int64(status), 10)
	dst = append(dst, ' ')
	return append(dst, msg...)
}

// ParseError splits an Error payload into status and message. A payload
// without the status prefix is a plain message with status 400.
func ParseError(payload []byte) (status int, msg string) {
	if len(payload) >= 4 && payload[3] == ' ' {
		if n, err := strconv.Atoi(string(payload[:3])); err == nil && n >= 400 && n <= 599 {
			return n, string(payload[4:])
		}
	}
	return 400, string(payload)
}

// AppendAck builds the Ack payload: version, pipelining window (the
// maximum number of unanswered batch frames the server accepts on this
// connection), and the instance's policy name — the client surfaces the
// latter so a stream run can report which policy actually decided.
func AppendAck(dst []byte, window uint32, policy string) []byte {
	dst = append(dst, Version)
	dst = binary.LittleEndian.AppendUint32(dst, window)
	return append(dst, policy...)
}

// ParseAck validates an Ack payload and returns the window and policy.
func ParseAck(payload []byte) (window uint32, policy string, err error) {
	if len(payload) < 5 {
		return 0, "", fmt.Errorf("%w: ack payload %d bytes, want at least 5", ErrFrame, len(payload))
	}
	if payload[0] != Version {
		return 0, "", fmt.Errorf("%w: version %d, this side speaks %d", ErrVersion, payload[0], Version)
	}
	window = binary.LittleEndian.Uint32(payload[1:])
	if window == 0 || window > MaxWindow {
		return 0, "", fmt.Errorf("%w: pipelining window %d outside [1, %d]", ErrFrame, window, MaxWindow)
	}
	return window, string(payload[5:]), nil
}

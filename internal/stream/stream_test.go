package stream

import (
	"errors"
	"io"
	"net"
	"testing"
)

// pipeConns returns two framed ends of an in-memory duplex connection.
func pipeConns(t *testing.T, maxPayload int) (*Conn, *Conn) {
	t.Helper()
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	return NewConn(a, maxPayload), NewConn(b, maxPayload)
}

func TestFrameRoundTrip(t *testing.T) {
	c, s := pipeConns(t, 0)
	frames := []struct {
		typ     byte
		seq     uint32
		payload string
	}{
		{FrameHello, 0, "handshake"},
		{FrameBatch, 1, ""},
		{FrameBatch, 2, "some batch bytes"},
		{FrameFin, 3, ""},
	}
	go func() {
		for _, f := range frames {
			if err := c.WriteFrame(f.typ, f.seq, []byte(f.payload)); err != nil {
				t.Error(err)
				return
			}
		}
		if err := c.Flush(); err != nil {
			t.Error(err)
		}
	}()
	for _, want := range frames {
		typ, seq, payload, err := s.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if typ != want.typ || seq != want.seq || string(payload) != want.payload {
			t.Fatalf("got (%c, %d, %q), want (%c, %d, %q)",
				typ, seq, payload, want.typ, want.seq, want.payload)
		}
	}
}

func TestReadFrameReusesPayloadBuffer(t *testing.T) {
	c, s := pipeConns(t, 0)
	go func() {
		c.WriteFrame(FrameBatch, 1, []byte("first, the longer payload"))
		c.WriteFrame(FrameBatch, 2, []byte("second"))
		c.Flush()
	}()
	_, _, p1, err := s.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	first := &p1[0]
	_, _, p2, err := s.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if string(p2) != "second" {
		t.Fatalf("second payload = %q", p2)
	}
	if &p2[0] != first {
		t.Error("second read did not reuse the payload buffer")
	}
}

func TestReadFrameRejectsUnknownType(t *testing.T) {
	c, s := pipeConns(t, 0)
	go func() {
		c.WriteFrame('Z', 0, nil)
		c.Flush()
	}()
	if _, _, _, err := s.ReadFrame(); !errors.Is(err, ErrFrame) {
		t.Fatalf("err = %v, want ErrFrame", err)
	}
}

func TestReadFrameRejectsOversizedPayload(t *testing.T) {
	c, s := pipeConns(t, 16)
	go func() {
		c.WriteFrame(FrameBatch, 0, make([]byte, 17))
		c.Flush()
	}()
	if _, _, _, err := s.ReadFrame(); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestReadFrameTruncatedPayload(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	s := NewConn(b, 0)
	c := NewConn(a, 0)
	go func() {
		// Declare 100 payload bytes, deliver 3, close.
		c.WriteFrame(FrameBatch, 0, []byte{1, 2, 3}) // header says 3 — rewrite length by hand
		c.Flush()
		a.Close()
	}()
	// The well-formed 3-byte frame reads fine; the close after it is EOF.
	if _, _, _, err := s.ReadFrame(); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := s.ReadFrame(); err != io.EOF {
		t.Fatalf("err = %v, want io.EOF", err)
	}
}

func TestHelloRoundTrip(t *testing.T) {
	p := AppendHello(nil, "i-42")
	id, err := ParseHello(p)
	if err != nil {
		t.Fatal(err)
	}
	if id != "i-42" {
		t.Fatalf("instance = %q, want i-42", id)
	}
	if _, err := ParseHello([]byte("XXXX\x01i-1")); !errors.Is(err, ErrFrame) {
		t.Fatalf("bad magic: err = %v, want ErrFrame", err)
	}
	bad := AppendHello(nil, "i-1")
	bad[4] = 99
	if _, err := ParseHello(bad); !errors.Is(err, ErrVersion) {
		t.Fatalf("bad version: err = %v, want ErrVersion", err)
	}
	if _, err := ParseHello([]byte("OS")); !errors.Is(err, ErrFrame) {
		t.Fatalf("short: err = %v, want ErrFrame", err)
	}
}

func TestAckRoundTrip(t *testing.T) {
	p := AppendAck(nil, 32, "randpr-weighted")
	window, policy, err := ParseAck(p)
	if err != nil {
		t.Fatal(err)
	}
	if window != 32 || policy != "randpr-weighted" {
		t.Fatalf("got (%d, %q), want (32, randpr-weighted)", window, policy)
	}
	if _, _, err := ParseAck(AppendAck(nil, 0, "x")); !errors.Is(err, ErrFrame) {
		t.Fatalf("zero window: err = %v, want ErrFrame", err)
	}
	if w, _, err := ParseAck(AppendAck(nil, MaxWindow, "x")); err != nil || w != MaxWindow {
		t.Fatalf("window MaxWindow: got (%d, %v), want (%d, nil)", w, err, MaxWindow)
	}
	for _, w := range []uint32{MaxWindow + 1, 1<<32 - 1} {
		if _, _, err := ParseAck(AppendAck(nil, w, "x")); !errors.Is(err, ErrFrame) {
			t.Fatalf("window %d: err = %v, want ErrFrame", w, err)
		}
	}
	bad := AppendAck(nil, 8, "x")
	bad[0] = 99
	if _, _, err := ParseAck(bad); !errors.Is(err, ErrVersion) {
		t.Fatalf("bad version: err = %v, want ErrVersion", err)
	}
}

package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/stream"
	"repro/internal/wire"
)

// The stream arm, the service's one binary ingest path: one long-lived
// connection carrying pipelined wire batch frames (internal/stream
// envelopes), answered with verdict frames in batch order. A connection
// arrives either through an HTTP/1.1 Upgrade on the main listener
// (GET /v1/stream, handleStreamUpgrade) or on a raw-TCP listener
// (ServeStream); from the Hello on, both are the same connection
// handler. It amortizes what an HTTP request pays per batch —
// connection bookkeeping, header parse, scratch checkout, one blocking
// round trip per batch — over a whole element stream, and it decides
// each element once: stream verdicts are built by the engine shard
// during its decide (engine.Batch.Done), not by a second handler-side
// replica decide as on the JSON arm. Steady state allocates nothing
// per element, and the default decode is zero-copy: a batch frame's
// payload is read off the socket straight into an aligned per-slot
// buffer and the engine's caps/members views alias those bytes in
// place (wire.AliasBatch) — no per-element copy between wire and
// shard. Frames that cannot be aliased (a big-endian host) fall back
// to the copying decoder, pinned byte-for-byte equivalent.
//
// Per-connection machinery, after the Hello/Ack handshake:
//
//	slots      [window]ingestSlot. Slot k%window owns everything batch
//	           seq k needs — the aligned payload buffer the engine
//	           aliases, the offsets buffer, the verdict mask buffer,
//	           and a dedicated aliased engine.Batch struct. The slot
//	           index is deterministic, so no slot ever serves two
//	           in-flight batches.
//	freeTok    chan struct{}, cap = window, pre-filled. Tokens ARE the
//	           window: the reader takes one per batch (blocking = TCP
//	           backpressure on the peer), the writer returns it after
//	           the verdict frame is on the wire. Both sides advance in
//	           seq order, so holding token k proves seq k−window's
//	           verdict was written — slot k%window is free, and the
//	           channel handoff is the happens-before edge that lets
//	           the reader overwrite memory a shard aliased.
//	resp       chan respFrame, cap = window+1: at most window verdict
//	           callbacks (each holds a mask buffer) plus one terminal
//	           from the reader — so a shard's Done callback NEVER
//	           blocks, protecting other connections sharing the shard.
//	writer     goroutine reordering completions by sequence number: a
//	           ring of window+1 slots holds early verdicts until their
//	           turn; a terminal frame (Error, Fin, or the silent
//	           dead-peer terminal) carries seq = first-unanswered, so
//	           it is held until every verdict below it is written.
//
// Each connection submits through its own Instance.IngestLane — a
// private shard round-robin — so concurrent connections feeding one
// instance contend on nothing but the shard queues themselves.
//
// Errors are connection-terminal here, unlike the lenient HTTP arm: a
// malformed or out-of-sequence frame ends the stream with an Error
// frame — routed through the same seq-ordered writer, so every batch
// read before the error still gets its verdicts first.
//
// Graceful drain (Server.Shutdown): stream listeners close, upgrades
// are refused with 503, live connections get StreamDrainGrace to
// finish — frames already read are answered with real verdicts because
// the engine pool drains only AFTER the connections quiesce — then
// readers time out and end their streams with a "shutting down" Error
// frame behind any pending verdicts.

// streamState tracks the stream listeners and live connections for
// graceful drain.
type streamState struct {
	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[*streamConn]struct{}
	draining  bool
	deadline  time.Time
	wg        sync.WaitGroup // one per live connection handler
}

// streamConn is one accepted stream connection. idx is its global
// accept ordinal, used to seed the connection's ingest lane so
// simultaneous connections start their shard round-robins apart.
type streamConn struct {
	fc       *stream.Conn
	idx      int
	draining atomic.Bool
}

// respFrame is one server→client frame routed through the seq-ordered
// writer. typ 0 is the silent terminal — flush pending verdicts, write
// nothing, exit — used when the peer is gone.
type respFrame struct {
	typ     byte
	seq     uint32
	payload []byte
}

// ingestSlot is one window slot of a connection's zero-copy ingest
// ring: the storage batch seq k (slot k%window) flows through without
// copying. raw holds the frame payload at an alignment wire.AliasBatch
// can alias (BatchAliasShift picks the landing offset); batch is the
// slot's dedicated Aliased engine.Batch — the engine detaches it after
// the decide instead of free-listing it, so the struct and its backing
// buffers stay with the slot for the next turn. masks capacity round-
// trips through the verdict callback and the writer stores it back
// here, possibly grown.
type ingestSlot struct {
	raw   []byte
	offs  []int32
	masks []byte
	batch *engine.Batch
}

// streamStats are the stream transport's lifetime counters, exported
// as osp_stream_* in /metrics.
type streamStats struct {
	connsTotal  atomic.Uint64
	connsActive atomic.Int64
	batches     atomic.Uint64
	errors      atomic.Uint64
}

// ServeStream accepts stream connections on ln until the listener
// closes, serving each on its own goroutine pair (reader + writer).
// Run it like http.Server.Serve: `go srv.ServeStream(ln)`. It returns
// nil once Shutdown begins, the accept error otherwise; the listener
// is owned by the server from this call on and closed at Shutdown.
func (s *Server) ServeStream(ln net.Listener) error {
	st := &s.stream
	st.mu.Lock()
	if st.draining {
		st.mu.Unlock()
		ln.Close()
		return ErrPoolClosed
	}
	if st.listeners == nil {
		st.listeners = make(map[net.Listener]struct{})
	}
	st.listeners[ln] = struct{}{}
	st.mu.Unlock()
	defer func() {
		st.mu.Lock()
		delete(st.listeners, ln)
		st.mu.Unlock()
	}()
	for {
		nc, err := ln.Accept()
		if err != nil {
			st.mu.Lock()
			draining := st.draining
			st.mu.Unlock()
			if draining {
				return nil
			}
			return err
		}
		if !st.track() {
			nc.Close()
			return nil
		}
		go s.handleStreamConn(nc)
	}
}

// track counts one more live connection for the drain's wait; false
// once Shutdown has begun. Add and the draining check share the lock,
// so no connection is admitted after drainStreams starts waiting.
func (st *streamState) track() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.draining {
		return false
	}
	st.wg.Add(1)
	return true
}

// handleStreamUpgrade is the stream protocol's entry on the main HTTP
// listener: GET /v1/stream with "Connection: Upgrade" and "Upgrade:
// osp-stream". It answers 426 without those headers and 503 once the
// server is closing; otherwise it hijacks the connection, writes 101
// Switching Protocols, clears the HTTP server's deadlines and hands the
// connection — bytes the HTTP reader already buffered included — to
// the same handler ServeStream uses, so graceful drain and the
// osp_stream_* counters cover it. It returns at once: the request
// histogram times the upgrade, not the stream.
func (s *Server) handleStreamUpgrade(w http.ResponseWriter, r *http.Request) {
	if !headerHasToken(r.Header, "Connection", "upgrade") || !headerHasToken(r.Header, "Upgrade", stream.UpgradeToken) {
		w.Header().Set("Upgrade", stream.UpgradeToken)
		w.Header().Set("Connection", "Upgrade")
		writeError(w, http.StatusUpgradeRequired,
			"stream: GET %s needs Connection: Upgrade and Upgrade: %s", stream.UpgradePath, stream.UpgradeToken)
		return
	}
	st := &s.stream
	if s.pool.Closed() || !st.track() {
		writeError(w, http.StatusServiceUnavailable, "%v", ErrPoolClosed)
		return
	}
	nc, brw, err := http.NewResponseController(w).Hijack()
	if err != nil {
		st.wg.Done()
		writeError(w, http.StatusInternalServerError, "stream: upgrade: %v", err)
		return
	}
	nc.SetDeadline(time.Time{}) //nolint:errcheck // the stream sets its own
	if n := brw.Reader.Buffered(); n > 0 {
		early, _ := brw.Reader.Peek(n)
		nc = &prefixedConn{Conn: nc, r: io.MultiReader(bytes.NewReader(early), nc)}
	}
	if _, err := io.WriteString(nc, "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: "+
		stream.UpgradeToken+"\r\n\r\n"); err != nil {
		nc.Close()
		st.wg.Done()
		return
	}
	if rec, ok := w.(*statusRecorder); ok {
		rec.status = http.StatusSwitchingProtocols // the 101 bypassed the ResponseWriter
	}
	go s.handleStreamConn(nc)
}

// headerHasToken reports whether a comma-separated header lists token,
// compared case-insensitively ("Connection: keep-alive, Upgrade").
func headerHasToken(h http.Header, key, token string) bool {
	for _, v := range h.Values(key) {
		for _, t := range strings.Split(v, ",") {
			if strings.EqualFold(strings.TrimSpace(t), token) {
				return true
			}
		}
	}
	return false
}

// prefixedConn replays bytes the HTTP server read ahead of the upgrade
// before reading the connection itself.
type prefixedConn struct {
	net.Conn
	r io.Reader
}

func (c *prefixedConn) Read(p []byte) (int, error) { return c.r.Read(p) }

// handleStreamConn owns one stream connection's lifecycle: counter and
// drain-registry bookkeeping around the protocol itself. The caller
// has tracked the connection (streamState.track).
func (s *Server) handleStreamConn(nc net.Conn) {
	st := &s.stream
	defer st.wg.Done()
	defer nc.Close()
	ordinal := s.obs.stream.connsTotal.Add(1)
	s.obs.stream.connsActive.Add(1)
	defer s.obs.stream.connsActive.Add(-1)

	sc := &streamConn{fc: stream.NewConn(nc, int(s.cfg.MaxBodyBytes)), idx: int(ordinal)}
	st.mu.Lock()
	if st.conns == nil {
		st.conns = make(map[*streamConn]struct{})
	}
	st.conns[sc] = struct{}{}
	if st.draining {
		// Accepted in the closing window: serve it, but under the same
		// drain deadline every established connection got.
		sc.draining.Store(true)
		sc.fc.SetReadDeadline(st.deadline) //nolint:errcheck
	}
	st.mu.Unlock()
	defer func() {
		st.mu.Lock()
		delete(st.conns, sc)
		st.mu.Unlock()
	}()

	s.serveStreamConn(sc)
}

// serveStreamConn runs the handshake, then the pipelined data plane.
func (s *Server) serveStreamConn(sc *streamConn) {
	fc := sc.fc
	typ, _, payload, err := fc.ReadFrame()
	if err != nil {
		return // nothing promised yet
	}
	fail := func(status int, format string, args ...any) {
		s.obs.stream.errors.Add(1)
		fc.WriteFrame(stream.FrameError, 0, stream.AppendError(nil, status, fmt.Sprintf(format, args...))) //nolint:errcheck
		fc.Flush()                                                                                         //nolint:errcheck
	}
	if typ != stream.FrameHello {
		fail(http.StatusBadRequest, "stream: expected hello, got frame %c", typ)
		return
	}
	id, err := stream.ParseHello(payload)
	if err != nil {
		fail(http.StatusBadRequest, "%v", err)
		return
	}
	if s.pool.Closed() {
		fail(http.StatusServiceUnavailable, "%v", ErrPoolClosed)
		return
	}
	in, ok := s.pool.Get(id)
	if !ok {
		fail(http.StatusNotFound, "unknown instance %q", id)
		return
	}
	window := s.cfg.StreamWindow
	if err := fc.WriteFrame(stream.FrameAck, 0,
		stream.AppendAck(make([]byte, 0, 64), uint32(window), in.Policy())); err != nil {
		return
	}
	if err := fc.Flush(); err != nil {
		return
	}

	resp := make(chan respFrame, window+1)
	slots := make([]ingestSlot, window)
	for i := range slots {
		slots[i].batch = new(engine.Batch)
	}
	freeTok := make(chan struct{}, window)
	for i := 0; i < window; i++ {
		freeTok <- struct{}{}
	}
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		// A dying writer unblocks a reader parked in ReadFrame; the
		// reader then sees writerDone and exits instead of terminating.
		defer fc.SetReadDeadline(time.Unix(1, 0)) //nolint:errcheck
		s.streamWriteLoop(fc, resp, slots, freeTok)
	}()
	s.streamReadLoop(sc, in, resp, slots, freeTok, writerDone)
	<-writerDone
}

// streamReadLoop reads batch frames, lands each payload in its window
// slot at an aliasable alignment, hands the engine caps/members views
// over those bytes (zero-copy; the copying decoder when aliasing is
// impossible) and submits on the connection's private lane with
// the verdict callback set; the engine shard completes the verdict
// frame during its decide. The loop ends by handing the writer exactly
// one terminal frame whose seq equals the number of batches submitted
// — the writer's signal that every verdict below it must go out first.
func (s *Server) streamReadLoop(sc *streamConn, in *Instance, resp chan respFrame, slots []ingestSlot, freeTok chan struct{}, writerDone chan struct{}) {
	fc := sc.fc
	eng := in.eng
	lane := in.IngestLane(sc.idx)
	numSets := in.info.NumSets()
	copyDecode := s.copyDecode
	timings := s.cfg.StreamTimings
	next := uint32(0) // seq of the next expected batch = batches submitted
	// terminate hands the writer the connection's last frame: Fin, or
	// 0 for a silent close (the peer is gone or aborted).
	terminate := func(typ byte) {
		select {
		case resp <- respFrame{typ, next, nil}:
		case <-writerDone:
		}
	}
	// fail ends the stream with an Error frame carrying the status the
	// HTTP API answers for the same condition.
	fail := func(status int, format string, args ...any) {
		s.obs.stream.errors.Add(1)
		select {
		case resp <- respFrame{stream.FrameError, next, stream.AppendError(nil, status, fmt.Sprintf(format, args...))}:
		case <-writerDone:
		}
	}
	// The one verdict callback for the connection, invoked by engine
	// shards after each batch's decide. Never blocks: resp has room for
	// every window slot plus the reader's terminal.
	done := func(seq uint32, masks []byte) {
		resp <- respFrame{stream.FrameVerdicts, seq, masks}
	}
	for {
		typ, seq, n, err := fc.ReadHeader()
		if err != nil {
			switch {
			case sc.draining.Load() && errors.Is(err, os.ErrDeadlineExceeded):
				fail(http.StatusServiceUnavailable, "stream: server shutting down (%d batches answered)", next)
			case errors.Is(err, stream.ErrTooLarge):
				fail(http.StatusRequestEntityTooLarge, "%v", err) // the peer is there and owed a reason
			case errors.Is(err, stream.ErrFrame):
				fail(http.StatusBadRequest, "%v", err)
			default:
				terminate(0) // peer gone or writer died: flush and close
			}
			return
		}
		switch typ {
		case stream.FrameBatch:
			if seq != next {
				// The payload is left unread; terminal either way.
				fail(http.StatusBadRequest, "stream: batch seq %d, want %d", seq, next)
				return
			}
			// Taking the token takes the window slot; blocking here (peer
			// overran the window) is backpressure via TCP.
			select {
			case <-freeTok:
			case <-writerDone:
				return
			}
			var decodeStart time.Time
			if timings {
				decodeStart = time.Now()
			}
			slot := &slots[int(seq)%len(slots)]
			// Land the payload so its caps/members sections are 4-aligned:
			// +3 spare bytes cover any landing shift.
			if cap(slot.raw) < n+3 {
				slot.raw = make([]byte, n+3)
			}
			raw := slot.raw[:cap(slot.raw)]
			pad := wire.BatchAliasShift(raw)
			payload := raw[pad : pad+n]
			if err := fc.ReadPayloadInto(payload); err != nil {
				terminate(0)
				return
			}
			// Enforce the batch cap from the frame header BEFORE decoding,
			// for the same reason the HTTP arm does: the copying decode
			// fills engine free-list buffers that live as long as the
			// instance.
			if c, ok := wire.PeekBatchCount(payload); ok && c > s.cfg.MaxBatch {
				fail(http.StatusBadRequest, "ingest: batch of %d exceeds limit %d", c, s.cfg.MaxBatch)
				return
			}
			var b *engine.Batch
			if !copyDecode {
				members, offs, caps, ok, aerr := wire.AliasBatch(payload, slot.offs[:0])
				if aerr != nil {
					fail(http.StatusBadRequest, "ingest: %v", aerr)
					return
				}
				if ok {
					slot.offs = offs
					b = slot.batch
					b.Members, b.Offs, b.Caps, b.Aliased = members, offs, caps, true
				}
			}
			if b == nil {
				// Copying fallback: the frame cannot be aliased on this
				// platform, or a test forced this path.
				b = eng.BorrowBatch()
				b.Members, b.Offs, b.Caps, err = wire.DecodeBatch(payload, b.Members[:0], b.Offs[:0], b.Caps[:0])
				if err != nil {
					eng.ReturnBatch(b)
					fail(http.StatusBadRequest, "ingest: %v", err)
					return
				}
			}
			// Atomicity, as both HTTP arms: the whole batch is validated
			// against the instance's universe before any element is
			// submitted. For aliased batches this is also where values
			// past MaxInt32 — negative through the int32 view — are
			// rejected, which is what lets AliasBatch skip that scan.
			if err := b.Validate(numSets); err != nil {
				eng.ReturnBatch(b)
				fail(http.StatusBadRequest, "ingest: %v", err)
				return
			}
			if timings {
				s.obs.streamDecode.Observe(time.Since(decodeStart))
			}
			b.Seq = seq
			b.Masks = wire.AppendVerdictsHeader(slot.masks[:0], b.Len())
			b.Done = done
			if err := lane.IngestBatch(b); err != nil {
				// The engine detached the batch (Reset dropped the
				// callback), so no verdict for this seq is coming: next
				// still counts only submitted batches.
				switch {
				case errors.Is(err, engine.ErrDrained) && s.pool.Closed():
					fail(http.StatusServiceUnavailable, "%v", ErrPoolClosed)
				case errors.Is(err, engine.ErrDrained):
					fail(http.StatusConflict, "ingest: instance %s is already drained", in.ID())
				default:
					fail(http.StatusBadRequest, "ingest: %v", err)
				}
				return
			}
			next++
			s.obs.stream.batches.Add(1)
		case stream.FrameFin:
			if _, err := fc.ReadPayload(n); err != nil {
				terminate(0)
				return
			}
			if seq != next {
				fail(http.StatusBadRequest, "stream: fin declares %d batches, %d submitted", seq, next)
				return
			}
			terminate(stream.FrameFin)
			return
		case stream.FrameError:
			if _, err := fc.ReadPayload(n); err != nil {
				terminate(0)
				return
			}
			s.obs.stream.errors.Add(1)
			terminate(0) // client aborted: flush what it is owed, close
			return
		default:
			fail(http.StatusBadRequest, "stream: unexpected frame %c", typ)
			return
		}
	}
}

// streamWriteLoop is the connection's single writer: it restores batch
// order over shard-completion order with a ring of pending verdict
// frames, stores each (possibly grown) mask buffer back into its slot
// and releases the window token once the frame is on the wire, flushes
// whenever the completion channel goes momentarily quiet, and exits
// after the terminal frame. Writing strictly in seq order is what
// makes the token release a proof that the seq's slot is reusable.
func (s *Server) streamWriteLoop(fc *stream.Conn, resp chan respFrame, slots []ingestSlot, freeTok chan struct{}) {
	window := len(slots)
	ring := make([]respFrame, window+1)
	present := make([]bool, window+1)
	next := uint32(0) // seq of the next verdict frame to write
	var terminal *respFrame
	flushed := true
	for {
		if terminal != nil && next == terminal.seq {
			if terminal.typ != 0 {
				if err := fc.WriteFrame(terminal.typ, terminal.seq, terminal.payload); err != nil {
					return
				}
			}
			fc.Flush() //nolint:errcheck // the stream is over either way
			return
		}
		var f respFrame
		select {
		case f = <-resp:
		default:
			if !flushed {
				if err := fc.Flush(); err != nil {
					return
				}
				flushed = true
			}
			f = <-resp
		}
		if f.typ != stream.FrameVerdicts {
			t := f
			terminal = &t
			continue
		}
		slot := int(f.seq) % len(ring)
		ring[slot], present[slot] = f, true
		for {
			slot := int(next) % len(ring)
			if !present[slot] {
				break
			}
			g := ring[slot]
			present[slot] = false
			if err := fc.WriteFrame(g.typ, g.seq, g.payload); err != nil {
				return
			}
			flushed = false
			slots[int(g.seq)%window].masks = g.payload
			freeTok <- struct{}{} // never blocks: at most window tokens exist
			next++
		}
	}
}

// drainStreams begins the stream side of graceful shutdown: close the
// listeners, put every live connection on the drain deadline, and wait
// for them to finish — forcing the sockets closed if ctx expires
// first. It must complete BEFORE the engine pool drains so that frames
// read during the grace window still get real verdicts.
func (s *Server) drainStreams(ctx context.Context) {
	st := &s.stream
	st.mu.Lock()
	st.draining = true
	st.deadline = time.Now().Add(s.cfg.StreamDrainGrace)
	for ln := range st.listeners {
		ln.Close()
	}
	for sc := range st.conns {
		sc.draining.Store(true)
		sc.fc.SetReadDeadline(st.deadline) //nolint:errcheck
	}
	st.mu.Unlock()

	done := make(chan struct{})
	go func() { st.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
		st.mu.Lock()
		for sc := range st.conns {
			sc.fc.Close()
		}
		st.mu.Unlock()
		<-done // handlers exit promptly once their sockets are closed
	}
}

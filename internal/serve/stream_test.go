package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hashpr"
	"repro/internal/obs"
	"repro/internal/setsystem"
	"repro/internal/stream"
	"repro/internal/wire"
)

// startStreamListener serves the stream transport on a loopback port,
// closing the listener at test end (Server.Shutdown also closes it).
func startStreamListener(t *testing.T, s *Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go s.ServeStream(ln) //nolint:errcheck // closed by cleanup or Shutdown
	return ln.Addr().String()
}

// startHTTP serves s on a loopback HTTP listener and returns its
// host:port — the stream upgrade needs a real connection to hijack.
func startHTTP(t *testing.T, s *Server) string {
	t.Helper()
	hs := httptest.NewServer(s)
	t.Cleanup(hs.Close)
	return hs.Listener.Addr().String()
}

// upgradeConn connects to the HTTP listener at addr and asks for the
// stream protocol, returning the raw connection and the answer.
func upgradeConn(t *testing.T, addr string) (net.Conn, *http.Response) {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	fmt.Fprintf(nc, "GET %s HTTP/1.1\r\nHost: %s\r\nConnection: Upgrade\r\nUpgrade: %s\r\n\r\n",
		stream.UpgradePath, addr, stream.UpgradeToken)
	resp, err := http.ReadResponse(bufio.NewReader(nc), nil)
	if err != nil {
		t.Fatal(err)
	}
	return nc, resp
}

// upgradeStream is dialStream through the HTTP upgrade of the main
// listener instead of the raw stream port.
func upgradeStream(t *testing.T, addr, id string) *testStream {
	t.Helper()
	nc, resp := upgradeConn(t, addr)
	if resp.StatusCode != http.StatusSwitchingProtocols {
		t.Fatalf("upgrade answered %s, want 101", resp.Status)
	}
	return handshake(t, stream.NewConn(nc, 0), id)
}

// streamEntries are the two ways onto the stream protocol: the raw
// listener and the upgrade of the main HTTP listener. Each opens a
// handshaken test stream to instance id on s.
func streamEntries(t *testing.T, s *Server) []struct {
	name string
	open func(t *testing.T, id string) *testStream
} {
	t.Helper()
	raw, httpAddr := startStreamListener(t, s), startHTTP(t, s)
	return []struct {
		name string
		open func(t *testing.T, id string) *testStream
	}{
		{"stream-addr", func(t *testing.T, id string) *testStream { return dialStream(t, raw, id) }},
		{"upgrade", func(t *testing.T, id string) *testStream { return upgradeStream(t, httpAddr, id) }},
	}
}

// decodeMasks unpacks a verdicts frame into per-element admitted sets,
// using the elements the "client" sent.
func decodeMasks(t *testing.T, raw []byte, els []setsystem.Element) [][]setsystem.SetID {
	t.Helper()
	payload, count, err := wire.DecodeVerdicts(raw)
	if err != nil {
		t.Fatal(err)
	}
	if count != len(els) {
		t.Fatalf("verdicts frame counts %d elements, sent %d", count, len(els))
	}
	out := make([][]setsystem.SetID, len(els))
	for i, el := range els {
		var mask []byte
		mask, payload, err = wire.MaskAt(payload, len(el.Members))
		if err != nil {
			t.Fatal(err)
		}
		for j, s := range el.Members {
			if wire.MaskBit(mask, j) {
				out[i] = append(out[i], s)
			}
		}
	}
	if len(payload) != 0 {
		t.Fatalf("%d stray bytes after the last mask", len(payload))
	}
	return out
}

// testStream is a frame-level stream client for tests: no osp/client
// machinery, just the protocol.
type testStream struct {
	t      *testing.T
	fc     *stream.Conn
	window uint32
	policy string
	sent   uint32
	recvd  uint32
}

// dialStream connects to the raw stream listener and completes the
// handshake, failing the test on any rejection (dial raw and speak
// frames by hand to test those).
func dialStream(t *testing.T, addr, id string) *testStream {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return handshake(t, stream.NewConn(nc, 0), id)
}

// handshake runs Hello/Ack for id on fc.
func handshake(t *testing.T, fc *stream.Conn, id string) *testStream {
	t.Helper()
	if err := fc.WriteFrame(stream.FrameHello, 0, stream.AppendHello(nil, id)); err != nil {
		t.Fatal(err)
	}
	if err := fc.Flush(); err != nil {
		t.Fatal(err)
	}
	typ, _, payload, err := fc.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if typ == stream.FrameError {
		t.Fatalf("stream handshake rejected: %s", payload)
	}
	if typ != stream.FrameAck {
		t.Fatalf("handshake answered with frame %c, want ack", typ)
	}
	window, policy, err := stream.ParseAck(payload)
	if err != nil {
		t.Fatal(err)
	}
	return &testStream{t: t, fc: fc, window: window, policy: policy}
}

// send pipelines one batch without waiting for its verdicts.
func (ts *testStream) send(els []setsystem.Element) {
	ts.t.Helper()
	if err := ts.fc.WriteFrame(stream.FrameBatch, ts.sent, wire.AppendElements(nil, els)); err != nil {
		ts.t.Fatal(err)
	}
	if err := ts.fc.Flush(); err != nil {
		ts.t.Fatal(err)
	}
	ts.sent++
}

// recv reads the next verdict frame — answering the oldest unanswered
// batch, whose elements the caller passes back in — and returns the
// per-element admitted sets.
func (ts *testStream) recv(els []setsystem.Element) [][]setsystem.SetID {
	ts.t.Helper()
	typ, seq, payload, err := ts.fc.ReadFrame()
	if err != nil {
		ts.t.Fatal(err)
	}
	if typ == stream.FrameError {
		ts.t.Fatalf("server error frame: %s", payload)
	}
	if typ != stream.FrameVerdicts || seq != ts.recvd {
		ts.t.Fatalf("got frame (%c, %d), want verdicts seq %d", typ, seq, ts.recvd)
	}
	ts.recvd++
	return decodeMasks(ts.t, payload, els)
}

// fin half-closes the stream and asserts the server's fin confirmation
// (any still-pending verdicts must already have been recv'd).
func (ts *testStream) fin() {
	ts.t.Helper()
	if err := ts.fc.WriteFrame(stream.FrameFin, ts.sent, nil); err != nil {
		ts.t.Fatal(err)
	}
	if err := ts.fc.Flush(); err != nil {
		ts.t.Fatal(err)
	}
	typ, _, payload, err := ts.fc.ReadFrame()
	if err != nil {
		ts.t.Fatal(err)
	}
	if typ != stream.FrameFin {
		ts.t.Fatalf("fin answered with frame %c (%s)", typ, payload)
	}
}

// expectError reads the server's terminal error frame, failing on
// anything else, and returns its raw payload (status prefix included).
func (ts *testStream) expectError() string {
	ts.t.Helper()
	typ, _, payload, err := ts.fc.ReadFrame()
	if err != nil {
		ts.t.Fatal(err)
	}
	if typ != stream.FrameError {
		ts.t.Fatalf("got frame %c, want error", typ)
	}
	return string(payload)
}

// expectStatus reads the terminal error frame and checks the HTTP
// status it carries.
func (ts *testStream) expectStatus(want int) string {
	ts.t.Helper()
	status, msg := stream.ParseError([]byte(ts.expectError()))
	if status != want {
		ts.t.Fatalf("error frame status %d (%s), want %d", status, msg, want)
	}
	return msg
}

// sendRaw pipelines one arbitrary batch payload.
func (ts *testStream) sendRaw(payload []byte) {
	ts.t.Helper()
	if err := ts.fc.WriteFrame(stream.FrameBatch, ts.sent, payload); err != nil {
		ts.t.Fatal(err)
	}
	if err := ts.fc.Flush(); err != nil {
		ts.t.Fatal(err)
	}
	ts.sent++
}

// TestStreamIngestMatchesAllCodecsAndOracle is the cross-codec
// equivalence anchor: the same workload ingested over JSON, the stream
// on the raw listener and the stream through the HTTP upgrade — in
// deliberately odd batch sizes — yields bit-for-bit identical
// per-element verdicts, all equal to the serial policy oracle, and
// identical drained results.
func TestStreamIngestMatchesAllCodecsAndOracle(t *testing.T) {
	const seed = 11
	inst := uniformInst(t, 60, 3000, 6, 4)
	s := New(Config{})
	defer s.Shutdown(t.Context())
	jsonID := register(t, s, inst, seed)
	ids := []string{jsonID}
	var streams []*testStream
	for _, e := range streamEntries(t, s) {
		id := register(t, s, inst, seed)
		ts := e.open(t, id)
		if ts.policy != "randpr" {
			t.Fatalf("%s: ack announced policy %q, want randpr", e.name, ts.policy)
		}
		ids, streams = append(ids, id), append(streams, ts)
	}

	prio := core.HashPriorities(core.InfoOf(inst), hashpr.Mixer{Seed: seed}, nil)
	// Odd batch sizes exercise mask padding at every alignment; the
	// 2048-element frame is decided in parts on both of the instance's
	// shards (register asks for 2), whatever the runner's core count.
	sizes := []int{1, 3, 7, 123, 250, 333, 2048}
	for off, k := 0, 0; off < len(inst.Elements); k++ {
		end := min(off+sizes[k%len(sizes)], len(inst.Elements))
		els := inst.Elements[off:end]

		var jresp IngestResponse
		if rec := do(t, s, "POST", "/v1/instances/"+jsonID+"/elements",
			IngestRequest{Elements: wireElems(els)}, &jresp); rec.Code != http.StatusOK {
			t.Fatalf("json ingest: status %d: %s", rec.Code, rec.Body.String())
		}
		for _, ts := range streams {
			ts.send(els)
		}
		for si, ts := range streams {
			sAdmitted := ts.recv(els)
			for i, el := range els {
				want := fmt.Sprint(core.SelectTopPrioritySort(el.Members, el.Capacity, prio, nil))
				if got := fmt.Sprint(sAdmitted[i]); got != want {
					t.Fatalf("element %d: stream %d admitted %v, oracle chose %v", off+i, si, got, want)
				}
				if got := fmt.Sprint(jresp.Verdicts[i].Admitted); got != want {
					t.Fatalf("element %d: json admitted %v, oracle chose %v", off+i, got, want)
				}
			}
		}
		off = end
	}
	for _, ts := range streams {
		ts.fin()
	}

	oracle, err := core.Run(inst, &core.HashRandPr{Hasher: hashpr.Mixer{Seed: seed}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		var dr DrainResponse
		if rec := do(t, s, "POST", "/v1/instances/"+id+"/drain", nil, &dr); rec.Code != http.StatusOK {
			t.Fatalf("drain %s: status %d: %s", id, rec.Code, rec.Body.String())
		}
		if !dr.Result.Core().Equal(oracle) {
			t.Fatalf("instance %s drained result differs from serial oracle", id)
		}
	}
}

// TestStreamInterleavedConnections runs two pipelined streams and a
// JSON poster into ONE instance concurrently: per-element verdicts stay
// oracle-exact on all three (decisions are pure in the element and the
// frozen state, so interleaving cannot change them) and the drained
// result still equals the serial oracle's.
func TestStreamInterleavedConnections(t *testing.T) {
	const seed = 23
	inst := uniformInst(t, 50, 2000, 5, 8)
	s := New(Config{})
	defer s.Shutdown(t.Context())
	addr := startStreamListener(t, s)
	id := register(t, s, inst, seed)
	prio := core.HashPriorities(core.InfoOf(inst), hashpr.Mixer{Seed: seed}, nil)

	const batch, arms = 125, 3
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// The JSON arm takes every third batch, starting at batch 2.
		for k := arms - 1; k*batch < len(inst.Elements); k += arms {
			els := inst.Elements[k*batch : min((k+1)*batch, len(inst.Elements))]
			var resp IngestResponse
			if rec := do(t, s, "POST", "/v1/instances/"+id+"/elements",
				IngestRequest{Elements: wireElems(els)}, &resp); rec.Code != http.StatusOK {
				t.Errorf("json ingest: status %d: %s", rec.Code, rec.Body.String())
				return
			}
			for i, el := range els {
				want := core.SelectTopPrioritySort(el.Members, el.Capacity, prio, nil)
				if fmt.Sprint(resp.Verdicts[i].Admitted) != fmt.Sprint(want) {
					t.Errorf("json: element verdict %v, oracle chose %v", resp.Verdicts[i].Admitted, want)
					return
				}
			}
		}
	}()
	for conn := 0; conn < 2; conn++ {
		wg.Add(1)
		go func(conn int) {
			defer wg.Done()
			ts := dialStream(t, addr, id)
			// Connection 0 takes batches 0, 3, 6, …, connection 1 batches
			// 1, 4, 7, …; pipeline up to 4 before collecting.
			var pending [][]setsystem.Element
			flush := func() {
				for _, els := range pending {
					admitted := ts.recv(els)
					for i, el := range els {
						want := core.SelectTopPrioritySort(el.Members, el.Capacity, prio, nil)
						if fmt.Sprint(admitted[i]) != fmt.Sprint(want) {
							t.Errorf("conn %d: element verdict %v, oracle chose %v", conn, admitted[i], want)
							return
						}
					}
				}
				pending = pending[:0]
			}
			for k := conn; k*batch < len(inst.Elements); k += arms {
				els := inst.Elements[k*batch : min((k+1)*batch, len(inst.Elements))]
				ts.send(els)
				if pending = append(pending, els); len(pending) == 4 {
					flush()
				}
			}
			flush()
			ts.fin()
		}(conn)
	}
	wg.Wait()

	oracle, err := core.Run(inst, &core.HashRandPr{Hasher: hashpr.Mixer{Seed: seed}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var dr DrainResponse
	do(t, s, "POST", "/v1/instances/"+id+"/drain", nil, &dr)
	if !dr.Result.Core().Equal(oracle) {
		t.Fatalf("drained result differs from serial oracle after interleaved streams")
	}
	if dr.Metrics.Processed != uint64(len(inst.Elements)) {
		t.Fatalf("processed %d elements, want %d", dr.Metrics.Processed, len(inst.Elements))
	}
}

// TestStreamProtocolErrors pins the terminal-error contract: bad
// handshakes, out-of-sequence batches, oversized batches, malformed
// frames and wrong fin counts each end the stream with an error frame
// — after any verdicts the connection was still owed.
func TestStreamProtocolErrors(t *testing.T) {
	inst := uniformInst(t, 10, 40, 3, 9)
	s := New(Config{MaxBatch: 16})
	defer s.Shutdown(t.Context())
	addr := startStreamListener(t, s)
	id := register(t, s, inst, 1)

	rawDial := func() *stream.Conn {
		t.Helper()
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { nc.Close() })
		return stream.NewConn(nc, 0)
	}
	hello := func(fc *stream.Conn, id string) {
		t.Helper()
		if err := fc.WriteFrame(stream.FrameHello, 0, stream.AppendHello(nil, id)); err != nil {
			t.Fatal(err)
		}
		if err := fc.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	readError := func(fc *stream.Conn) string {
		t.Helper()
		typ, _, payload, err := fc.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if typ != stream.FrameError {
			t.Fatalf("got frame %c, want error", typ)
		}
		return string(payload)
	}

	t.Run("unknown instance", func(t *testing.T) {
		fc := rawDial()
		hello(fc, "i-999")
		if msg := readError(fc); !bytes.Contains([]byte(msg), []byte("unknown instance")) {
			t.Fatalf("error = %q", msg)
		}
	})

	t.Run("batch before hello", func(t *testing.T) {
		fc := rawDial()
		if err := fc.WriteFrame(stream.FrameBatch, 0, wire.AppendElements(nil, inst.Elements[:1])); err != nil {
			t.Fatal(err)
		}
		if err := fc.Flush(); err != nil {
			t.Fatal(err)
		}
		if msg := readError(fc); !bytes.Contains([]byte(msg), []byte("expected hello")) {
			t.Fatalf("error = %q", msg)
		}
	})

	t.Run("out of sequence", func(t *testing.T) {
		ts := dialStream(t, addr, id)
		ts.send(inst.Elements[:2])
		// Skip ahead: seq 5 instead of 1. The verdict for batch 0 must
		// still arrive before the terminal error.
		if err := ts.fc.WriteFrame(stream.FrameBatch, 5, wire.AppendElements(nil, inst.Elements[2:4])); err != nil {
			t.Fatal(err)
		}
		if err := ts.fc.Flush(); err != nil {
			t.Fatal(err)
		}
		ts.recv(inst.Elements[:2])
		if msg := ts.expectError(); !bytes.Contains([]byte(msg), []byte("seq")) {
			t.Fatalf("error = %q", msg)
		}
	})

	t.Run("oversized batch", func(t *testing.T) {
		ts := dialStream(t, addr, id)
		big := make([]setsystem.Element, 17)
		for i := range big {
			big[i] = inst.Elements[0]
		}
		ts.send(big)
		if msg := ts.expectError(); !bytes.Contains([]byte(msg), []byte("exceeds limit")) {
			t.Fatalf("error = %q", msg)
		}
	})

	t.Run("malformed frame", func(t *testing.T) {
		ts := dialStream(t, addr, id)
		if err := ts.fc.WriteFrame(stream.FrameBatch, 0, []byte("not a wire frame")); err != nil {
			t.Fatal(err)
		}
		if err := ts.fc.Flush(); err != nil {
			t.Fatal(err)
		}
		if msg := ts.expectError(); !bytes.Contains([]byte(msg), []byte("ingest")) {
			t.Fatalf("error = %q", msg)
		}
	})

	t.Run("wrong fin count", func(t *testing.T) {
		ts := dialStream(t, addr, id)
		ts.send(inst.Elements[:2])
		ts.recv(inst.Elements[:2])
		if err := ts.fc.WriteFrame(stream.FrameFin, 7, nil); err != nil {
			t.Fatal(err)
		}
		if err := ts.fc.Flush(); err != nil {
			t.Fatal(err)
		}
		if msg := ts.expectError(); !bytes.Contains([]byte(msg), []byte("fin declares")) {
			t.Fatalf("error = %q", msg)
		}
	})
}

// TestStreamShutdownAnswersInFlight is the drain-under-load contract:
// Shutdown with a window of unanswered pipelined batches must answer
// every one with real verdicts before the stream ends with a shutting-
// down error frame — frames read are never dropped — on both stream
// entries; and every JSON request racing Shutdown is either answered
// with real verdicts the engine then decided, or refused with 503.
func TestStreamShutdownAnswersInFlight(t *testing.T) {
	const seed, batch, inFlight = 31, 200, 8
	inst := uniformInst(t, 50, 2000, 5, 3)
	prio := core.HashPriorities(core.InfoOf(inst), hashpr.Mixer{Seed: seed}, nil)
	checkVerdicts := func(t *testing.T, els []setsystem.Element, admitted [][]setsystem.SetID) {
		t.Helper()
		for i, el := range els {
			want := core.SelectTopPrioritySort(el.Members, el.Capacity, prio, nil)
			if fmt.Sprint(admitted[i]) != fmt.Sprint(want) {
				t.Fatalf("verdict during drain = %v, oracle chose %v", admitted[i], want)
			}
		}
	}
	shutdown := func(s *Server) chan error {
		done := make(chan error, 1)
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			done <- s.Shutdown(ctx)
		}()
		return done
	}
	processed := func(t *testing.T, s *Server, id string) uint64 {
		t.Helper()
		in, ok := s.Pool().Get(id)
		if !ok {
			t.Fatal("instance gone after shutdown")
		}
		return in.Snapshot().Processed
	}

	for _, name := range []string{"stream-addr", "upgrade"} {
		t.Run(name, func(t *testing.T) {
			s := New(Config{StreamDrainGrace: 200 * time.Millisecond})
			var entry func(t *testing.T, id string) *testStream
			for _, e := range streamEntries(t, s) {
				if e.name == name {
					entry = e.open
				}
			}
			id := register(t, s, inst, seed)
			ts := entry(t, id)
			var sent [][]setsystem.Element
			for k := 0; k < inFlight; k++ {
				els := inst.Elements[k*batch : (k+1)*batch]
				ts.send(els)
				sent = append(sent, els)
			}
			done := shutdown(s)
			// Every pipelined batch is answered — with oracle-exact
			// verdicts — then the terminal frame announces the drain.
			for _, els := range sent {
				checkVerdicts(t, els, ts.recv(els))
			}
			if msg := ts.expectStatus(http.StatusServiceUnavailable); !strings.Contains(msg, "shutting down") {
				t.Fatalf("terminal frame = %q, want shutting-down notice", msg)
			}
			if err := <-done; err != nil {
				t.Fatalf("shutdown: %v", err)
			}
			// The engine really did decide those elements before draining.
			if got := processed(t, s, id); got != inFlight*batch {
				t.Fatalf("engine processed %d elements, want %d", got, inFlight*batch)
			}
		})
	}

	t.Run("json", func(t *testing.T) {
		s := New(Config{StreamDrainGrace: 200 * time.Millisecond})
		id := register(t, s, inst, seed)
		post := func(k int) *httptest.ResponseRecorder {
			return do(t, s, "POST", "/v1/instances/"+id+"/elements",
				IngestRequest{Elements: wireElems(inst.Elements[k*batch : (k+1)*batch])}, nil)
		}
		// Request 0 is answered before Shutdown begins, so the check is
		// never vacuous; the rest race it. Results are checked on this
		// goroutine once every request has returned.
		recs := []*httptest.ResponseRecorder{post(0)}
		recs = append(recs, make([]*httptest.ResponseRecorder, inFlight-1)...)
		var wg sync.WaitGroup
		for k := 1; k < inFlight; k++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				recs[k] = post(k)
			}(k)
		}
		done := shutdown(s)
		wg.Wait()
		if err := <-done; err != nil {
			t.Fatalf("shutdown: %v", err)
		}
		answered := 0
		for k, rec := range recs {
			switch {
			case rec.Code == http.StatusOK:
				var resp IngestResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || len(resp.Verdicts) != batch {
					t.Fatalf("request %d: %d verdicts for %d elements (%v)", k, len(resp.Verdicts), batch, err)
				}
				admitted := make([][]setsystem.SetID, batch)
				for i, v := range resp.Verdicts {
					admitted[i] = v.Admitted
				}
				checkVerdicts(t, inst.Elements[k*batch:(k+1)*batch], admitted)
				answered += batch
			case rec.Code != http.StatusServiceUnavailable || k == 0:
				t.Fatalf("request %d racing shutdown: status %d: %s", k, rec.Code, rec.Body.String())
			}
		}
		if got := processed(t, s, id); got != uint64(answered) {
			t.Fatalf("engine processed %d elements, JSON answered %d with verdicts", got, answered)
		}
	})
}

// TestStreamCopyFallbackMatchesAlias is the decode-path equivalence
// pin: the same frames sent to a default (zero-copy aliasing) server
// and to one forced onto the copying decoder — the big-endian path —
// produce byte-for-byte identical verdict frames, and both drain to the
// serial oracle's result. StreamTimings is exercised on the copying
// server to cover the stamped variant of the read loop.
func TestStreamCopyFallbackMatchesAlias(t *testing.T) {
	const seed = 43
	inst := uniformInst(t, 70, 4000, 6, 2)
	zc := New(Config{})
	defer zc.Shutdown(t.Context())
	cp := New(Config{StreamTimings: true})
	cp.copyDecode = true
	defer cp.Shutdown(t.Context())
	zcAddr := startStreamListener(t, zc)
	cpAddr := startStreamListener(t, cp)
	zcID := register(t, zc, inst, seed)
	cpID := register(t, cp, inst, seed)

	zcStream := dialStream(t, zcAddr, zcID)
	cpStream := dialStream(t, cpAddr, cpID)

	readVerdicts := func(ts *testStream) []byte {
		t.Helper()
		typ, seq, payload, err := ts.fc.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if typ != stream.FrameVerdicts || seq != ts.recvd {
			t.Fatalf("got frame (%c, %d), want verdicts seq %d: %s", typ, seq, ts.recvd, payload)
		}
		ts.recvd++
		return append([]byte(nil), payload...)
	}

	// Odd batch sizes hit every mask-padding alignment; 1-element batches
	// hit the smallest aliasable frames.
	sizes := []int{1, 2, 9, 64, 255, 501}
	for off, k := 0, 0; off < len(inst.Elements); k++ {
		end := min(off+sizes[k%len(sizes)], len(inst.Elements))
		els := inst.Elements[off:end]
		zcStream.send(els)
		cpStream.send(els)
		zcV := readVerdicts(zcStream)
		cpV := readVerdicts(cpStream)
		if !bytes.Equal(zcV, cpV) {
			t.Fatalf("batch %d: zero-copy verdict frame differs from copy-decode frame (%d vs %d bytes)", k, len(zcV), len(cpV))
		}
		off = end
	}
	zcStream.fin()
	cpStream.fin()

	oracle, err := core.Run(inst, &core.HashRandPr{Hasher: hashpr.Mixer{Seed: seed}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, sv := range []struct {
		s  *Server
		id string
	}{{zc, zcID}, {cp, cpID}} {
		var dr DrainResponse
		if rec := do(t, sv.s, "POST", "/v1/instances/"+sv.id+"/drain", nil, &dr); rec.Code != http.StatusOK {
			t.Fatalf("drain: status %d: %s", rec.Code, rec.Body.String())
		}
		if !dr.Result.Core().Equal(oracle) {
			t.Fatal("drained result differs from serial oracle")
		}
	}
	// The timings-enabled server populated the stream decode histogram;
	// the default server skipped the stamps entirely.
	if n := cp.obs.streamDecode.Snapshot().Count; n == 0 {
		t.Error("StreamTimings server recorded no stream decode observations")
	}
	if n := zc.obs.streamDecode.Snapshot().Count; n != 0 {
		t.Errorf("default server recorded %d stream decode observations, want 0 (timings off)", n)
	}
}

// TestStreamSteadyStateAllocs is the stream arm's alloc-regression
// gate, on both entries (raw listener, upgraded connection) with
// telemetry off and with the decision log sampling every 8th element
// under a hot 1 ms drainer: once the per-connection buffers, engine
// batches and verdict masks are warm, a full batch round trip over the
// real TCP loopback — client encode, server decode, shard decide,
// verdict frame back — allocates nothing per element.
func TestStreamSteadyStateAllocs(t *testing.T) {
	inst := uniformInst(t, 200, 16384, 8, 21)
	const batch = 2048
	frames := make([][]byte, 0, len(inst.Elements)/batch)
	for off := 0; off+batch <= len(inst.Elements); off += batch {
		frames = append(frames, wire.AppendElements(nil, inst.Elements[off:off+batch]))
	}
	for _, telemetry := range []string{"off", "decisions"} {
		// A lockstep round trip lands every batch in one slot, so the
		// warm-up below brings that slot's buffers to high-water.
		cfg := Config{StreamWindow: 4}
		if telemetry == "decisions" {
			dlog := obs.NewDecisionLog(obs.DecisionLogConfig{
				SampleEvery: 8,
				RingSize:    512,
				FlushEvery:  time.Millisecond, // drainer stays hot during the probe
			})
			t.Cleanup(func() { dlog.Close() })
			cfg.Decisions = dlog
		}
		s := New(cfg)
		t.Cleanup(func() { s.Shutdown(context.Background()) }) //nolint:errcheck
		for _, e := range streamEntries(t, s) {
			t.Run(e.name+"/telemetry="+telemetry, func(t *testing.T) {
				ts := e.open(t, register(t, s, inst, 5))
				roundTrip := func(k int) {
					ts.sendRaw(frames[k])
					typ, _, payload, err := ts.fc.ReadFrame()
					if err != nil {
						t.Fatal(err)
					}
					if typ != stream.FrameVerdicts {
						t.Fatalf("got frame %c (%s), want verdicts", typ, payload)
					}
					ts.recvd++
				}
				// Warm-up: cycle more round trips than window slots and
				// engine free-list batches so every recycled buffer
				// reaches its final size.
				for k := 0; k < 12; k++ {
					roundTrip(k % len(frames))
				}
				pos := 0
				allocs := testing.AllocsPerRun(30, func() {
					roundTrip(pos % len(frames))
					pos++
				})
				perElement := allocs / batch
				t.Logf("warm stream round trip: %.1f allocs/batch over %d elements (%.4f/element)", allocs, batch, perElement)
				if perElement > 0.05 {
					t.Errorf("stream round trip allocates %.4f/element (%v per %d-element batch), want ~0",
						perElement, allocs, batch)
				}
			})
		}
	}
}

// TestStreamLandsBatchesInFreedSlots pins the slot reuse: the reader
// lands each batch in the most recently freed window slot, so at the
// default window of 32 a lockstep stream (send, then receive) gives
// exactly one slot a payload buffer, and a stream pipelining 4 batches
// at most 4 slots. Every verdict and the drain equal the oracle.
func TestStreamLandsBatchesInFreedSlots(t *testing.T) {
	const seed, batch = 31, 64
	inst := uniformInst(t, 80, 100*batch, 5, 17)
	prio := core.HashPriorities(core.InfoOf(inst), hashpr.Mixer{Seed: seed}, nil)
	oracle, err := core.Run(inst, &core.HashRandPr{Hasher: hashpr.Mixer{Seed: seed}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var batches [][]setsystem.Element
	for off := 0; off < len(inst.Elements); off += batch {
		batches = append(batches, inst.Elements[off:off+batch])
	}
	for _, depth := range []int{1, 4} {
		t.Run(fmt.Sprintf("depth=%d", depth), func(t *testing.T) {
			s := New(Config{})
			defer s.Shutdown(context.Background()) //nolint:errcheck
			id := register(t, s, inst, seed)
			ts := upgradeStream(t, startHTTP(t, s), id)
			if ts.window != 32 {
				t.Fatalf("default window %d, want 32", ts.window)
			}
			// The Ack came after the handler registered the connection.
			s.stream.mu.Lock()
			var sc *streamConn
			for c := range s.stream.conns {
				sc = c
			}
			s.stream.mu.Unlock()

			check := func(k int) {
				t.Helper()
				admitted := ts.recv(batches[k])
				for i, el := range batches[k] {
					want := fmt.Sprint(core.SelectTopPrioritySort(el.Members, el.Capacity, prio, nil))
					if got := fmt.Sprint(admitted[i]); got != want {
						t.Fatalf("batch %d element %d: admitted %v, oracle chose %v", k, i, got, want)
					}
				}
			}
			for k := range batches {
				ts.send(batches[k])
				if k >= depth-1 {
					check(k - depth + 1)
				}
			}
			for k := len(batches) - depth + 1; k < len(batches); k++ {
				check(k)
			}
			ts.fin()
			// Leaving the registry is the handler's last act on the
			// connection, so once it is gone the slots are settled.
			for gone := false; !gone; time.Sleep(time.Millisecond) {
				s.stream.mu.Lock()
				gone = len(s.stream.conns) == 0
				s.stream.mu.Unlock()
			}
			used := 0
			for _, sl := range sc.slots {
				if sl.raw != nil {
					used++
				}
			}
			if used > depth || depth == 1 && used != 1 {
				t.Errorf("%d batches %d in flight filled %d of %d slots, want %d", len(batches), depth, used, len(sc.slots), depth)
			}

			var dr DrainResponse
			if rec := do(t, s, "POST", "/v1/instances/"+id+"/drain", nil, &dr); rec.Code != http.StatusOK {
				t.Fatalf("drain: status %d: %s", rec.Code, rec.Body.String())
			}
			if !dr.Result.Core().Equal(oracle) {
				t.Fatal("drained result differs from the serial oracle")
			}
		})
	}
}

// TestBinaryIngestRejects pins binary ingest's status codes against the
// JSON arm's contract: a binary batch body on the JSON endpoint is a
// 415 that names the stream, and on the stream — reached through the
// upgrade — malformed frames, invalid elements and oversized batches
// end the stream with a 400 Error frame and drained instances with a
// 409, nothing ingested (atomicity); after every rejection the instance
// still drains clean.
func TestBinaryIngestRejects(t *testing.T) {
	inst := uniformInst(t, 10, 40, 3, 9)
	s := New(Config{MaxBatch: 16})
	defer s.Shutdown(t.Context())
	addr := startHTTP(t, s)
	id := register(t, s, inst, 1)
	good := wire.AppendElements(nil, inst.Elements[:1])

	req := httptest.NewRequest("POST", "/v1/instances/"+id+"/elements", bytes.NewReader(good))
	req.Header.Set("Content-Type", wire.ContentTypeBatch+"; charset=binary")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusUnsupportedMediaType || !strings.Contains(rec.Body.String(), stream.UpgradePath) {
		t.Errorf("binary body on the JSON endpoint: status %d %q, want 415 naming %s", rec.Code, rec.Body.String(), stream.UpgradePath)
	}

	big := make([]setsystem.Element, 17)
	for i := range big {
		big[i] = inst.Elements[0]
	}
	for _, tc := range []struct {
		name    string
		payload []byte
	}{
		{"garbage frame", []byte("not a frame")},
		{"truncated frame", good[:len(good)-2]},
		{"out-of-range member", wire.AppendElements(nil, []setsystem.Element{{Members: []setsystem.SetID{99}, Capacity: 1}})},
		{"oversized batch", wire.AppendElements(nil, big)},
	} {
		ts := upgradeStream(t, addr, id)
		ts.sendRaw(tc.payload)
		msg := ts.expectStatus(http.StatusBadRequest)
		t.Logf("%s: %s", tc.name, msg)
	}

	// Nothing above was ingested: the engine is still idle.
	var st InstanceStatus
	do(t, s, "GET", "/v1/instances/"+id, nil, &st)
	if st.Metrics.Submitted != 0 {
		t.Errorf("rejected batches leaked %d elements into the engine", st.Metrics.Submitted)
	}

	ts := upgradeStream(t, addr, id)
	do(t, s, "POST", "/v1/instances/"+id+"/drain", nil, nil)
	ts.sendRaw(good)
	ts.expectStatus(http.StatusConflict)
}

// TestBinaryIngestBodyLimit mirrors the JSON path's 413 contract on the
// stream: a batch frame declaring more than MaxBodyBytes is refused
// from its header, before any of it is read, with a 413 Error frame.
func TestBinaryIngestBodyLimit(t *testing.T) {
	inst := uniformInst(t, 10, 60, 3, 9)
	s := New(Config{MaxBodyBytes: 512})
	defer s.Shutdown(t.Context())
	id := register(t, s, inst, 1)
	frame := wire.AppendElements(nil, inst.Elements[:50])
	if len(frame) <= 512 {
		t.Fatalf("test frame only %d bytes, need > 512", len(frame))
	}
	ts := upgradeStream(t, startHTTP(t, s), id)
	ts.sendRaw(frame)
	if msg := ts.expectStatus(http.StatusRequestEntityTooLarge); !strings.Contains(msg, "limit 512") {
		t.Errorf("413 frame = %q, want the limit named", msg)
	}
}

// TestStreamUpgrade pins the upgrade entry itself: a GET without the
// upgrade headers is a 426 that says what to send, an unknown instance
// after a good upgrade is a 404 Error frame, an upgrade while Shutdown
// drains the streams is a 503, and osp_http_requests_total counts the
// 101 the middleware never saw written.
func TestStreamUpgrade(t *testing.T) {
	inst := uniformInst(t, 10, 40, 3, 9)
	s := New(Config{StreamDrainGrace: 10 * time.Second})
	addr := startHTTP(t, s)
	id := register(t, s, inst, 1)

	rec := do(t, s, "GET", stream.UpgradePath, nil, nil)
	if rec.Code != http.StatusUpgradeRequired || rec.Header().Get("Upgrade") != stream.UpgradeToken {
		t.Errorf("plain GET %s: status %d, Upgrade %q; want 426 naming %s",
			stream.UpgradePath, rec.Code, rec.Header().Get("Upgrade"), stream.UpgradeToken)
	}

	nc, resp := upgradeConn(t, addr)
	if resp.StatusCode != http.StatusSwitchingProtocols || resp.Header.Get("Upgrade") != stream.UpgradeToken {
		t.Fatalf("upgrade answered %s with Upgrade %q", resp.Status, resp.Header.Get("Upgrade"))
	}
	fc := stream.NewConn(nc, 0)
	if err := fc.WriteFrame(stream.FrameHello, 0, stream.AppendHello(nil, "i-999")); err != nil {
		t.Fatal(err)
	}
	if err := fc.Flush(); err != nil {
		t.Fatal(err)
	}
	unknown := &testStream{t: t, fc: fc}
	if msg := unknown.expectStatus(http.StatusNotFound); !strings.Contains(msg, "unknown instance") {
		t.Errorf("unknown instance error = %q", msg)
	}

	fams := scrape(t, s)
	var upgrades float64
	for _, smp := range fams["osp_http_requests_total"].samples {
		if smp.labels["handler"] == "GET "+stream.UpgradePath && smp.labels["code"] == "101" {
			upgrades = smp.value
		}
	}
	if upgrades != 1 {
		t.Errorf("osp_http_requests_total{handler=GET %s,code=101} = %v, want 1", stream.UpgradePath, upgrades)
	}

	// A quiet open stream holds Shutdown in its stream drain; an upgrade
	// in that window is refused while the pool itself is still open.
	quiet := upgradeStream(t, addr, id)
	done := make(chan error, 1)
	go func() { done <- s.Shutdown(context.Background()) }()
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, resp := upgradeConn(t, addr)
		if resp.StatusCode == http.StatusServiceUnavailable {
			if s.pool.Closed() {
				t.Fatal("503 came from the closed pool, not the stream drain")
			}
			break
		}
		if resp.StatusCode != http.StatusSwitchingProtocols || time.Now().After(deadline) {
			t.Fatalf("upgrade during shutdown answered %s, want 503", resp.Status)
		}
		time.Sleep(5 * time.Millisecond) // Shutdown has not begun yet
	}
	quiet.fc.Close() // let the drain finish
	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

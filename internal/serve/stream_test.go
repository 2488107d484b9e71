package serve

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hashpr"
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

// dialStream connects and completes the handshake, failing the test on
// any rejection (dial raw and speak frames by hand to test those).
func dialStream(t *testing.T, addr, id string) *testStream {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	fc := stream.NewConn(nc, 0)
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

// expectError reads frames until the server's terminal error, failing
// on anything else, and returns its message.
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

// TestStreamIngestMatchesAllCodecsAndOracle is the cross-codec
// equivalence anchor: the same workload ingested over JSON, binary
// HTTP and the stream transport — the stream in deliberately odd batch
// sizes — yields bit-for-bit identical per-element verdicts, all equal
// to the serial policy oracle, and identical drained results.
func TestStreamIngestMatchesAllCodecsAndOracle(t *testing.T) {
	const seed = 11
	inst := uniformInst(t, 60, 3000, 6, 4)
	s := New(Config{})
	defer s.Shutdown(t.Context())
	addr := startStreamListener(t, s)
	jsonID := register(t, s, inst, seed)
	binID := register(t, s, inst, seed)
	streamID := register(t, s, inst, seed)

	prio := core.HashPriorities(core.InfoOf(inst), hashpr.Mixer{Seed: seed}, nil)
	ts := dialStream(t, addr, streamID)
	if ts.policy != "randpr" {
		t.Fatalf("ack announced policy %q, want randpr", ts.policy)
	}

	// Odd batch sizes exercise mask padding at every alignment.
	sizes := []int{1, 3, 7, 123, 250, 333}
	for off, k := 0, 0; off < len(inst.Elements); k++ {
		end := min(off+sizes[k%len(sizes)], len(inst.Elements))
		els := inst.Elements[off:end]

		var jresp IngestResponse
		if rec := do(t, s, "POST", "/v1/instances/"+jsonID+"/elements",
			IngestRequest{Elements: wireElems(els)}, &jresp); rec.Code != http.StatusOK {
			t.Fatalf("json ingest: status %d: %s", rec.Code, rec.Body.String())
		}
		brec := doBinary(t, s, binID, wire.AppendElements(nil, els))
		if brec.Code != http.StatusOK {
			t.Fatalf("binary ingest: status %d: %s", brec.Code, brec.Body.String())
		}
		bAdmitted := decodeMasks(t, brec.Body.Bytes(), els)

		ts.send(els)
		sAdmitted := ts.recv(els)

		for i, el := range els {
			want := core.SelectTopPriority(el.Members, el.Capacity, prio, nil)
			if fmt.Sprint(sAdmitted[i]) != fmt.Sprint(want) {
				t.Fatalf("element %d: stream admitted %v, oracle chose %v", off+i, sAdmitted[i], want)
			}
			if fmt.Sprint(sAdmitted[i]) != fmt.Sprint(bAdmitted[i]) ||
				fmt.Sprint(sAdmitted[i]) != fmt.Sprint(jresp.Verdicts[i].Admitted) {
				t.Fatalf("element %d: stream %v, binary %v, json %v",
					off+i, sAdmitted[i], bAdmitted[i], jresp.Verdicts[i].Admitted)
			}
		}
		off = end
	}
	ts.fin()

	oracle, err := core.Run(inst, &core.HashRandPr{Hasher: hashpr.Mixer{Seed: seed}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{jsonID, binID, streamID} {
		var dr DrainResponse
		if rec := do(t, s, "POST", "/v1/instances/"+id+"/drain", nil, &dr); rec.Code != http.StatusOK {
			t.Fatalf("drain %s: status %d: %s", id, rec.Code, rec.Body.String())
		}
		if !dr.Result.Core().Equal(oracle) {
			t.Fatalf("instance %s drained result differs from serial oracle", id)
		}
	}
}

// TestStreamInterleavedConnections runs two pipelined streams into ONE
// instance concurrently: per-element verdicts stay oracle-exact on
// both (decisions are pure in the element and the frozen state, so
// interleaving cannot change them) and the drained result still equals
// the serial oracle's.
func TestStreamInterleavedConnections(t *testing.T) {
	const seed = 23
	inst := uniformInst(t, 50, 2000, 5, 8)
	s := New(Config{})
	defer s.Shutdown(t.Context())
	addr := startStreamListener(t, s)
	id := register(t, s, inst, seed)
	prio := core.HashPriorities(core.InfoOf(inst), hashpr.Mixer{Seed: seed}, nil)

	const batch = 125
	var wg sync.WaitGroup
	for conn := 0; conn < 2; conn++ {
		wg.Add(1)
		go func(conn int) {
			defer wg.Done()
			ts := dialStream(t, addr, id)
			// Connection 0 takes even batches, connection 1 odd ones;
			// pipeline up to 4 before collecting.
			var pending [][]setsystem.Element
			flush := func() {
				for _, els := range pending {
					admitted := ts.recv(els)
					for i, el := range els {
						want := core.SelectTopPriority(el.Members, el.Capacity, prio, nil)
						if fmt.Sprint(admitted[i]) != fmt.Sprint(want) {
							t.Errorf("conn %d: element verdict %v, oracle chose %v", conn, admitted[i], want)
							return
						}
					}
				}
				pending = pending[:0]
			}
			for k := conn; k*batch < len(inst.Elements); k += 2 {
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
// down error frame — frames read are never dropped.
func TestStreamShutdownAnswersInFlight(t *testing.T) {
	const seed = 31
	inst := uniformInst(t, 50, 2000, 5, 3)
	s := New(Config{StreamDrainGrace: 200 * time.Millisecond})
	addr := startStreamListener(t, s)
	id := register(t, s, inst, seed)
	prio := core.HashPriorities(core.InfoOf(inst), hashpr.Mixer{Seed: seed}, nil)

	ts := dialStream(t, addr, id)
	const batch, inFlight = 200, 8
	var sent [][]setsystem.Element
	for k := 0; k < inFlight; k++ {
		els := inst.Elements[k*batch : (k+1)*batch]
		ts.send(els)
		sent = append(sent, els)
	}

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()

	// Every pipelined batch is answered — with oracle-exact verdicts —
	// then the terminal frame announces the drain.
	for _, els := range sent {
		admitted := ts.recv(els)
		for i, el := range els {
			want := core.SelectTopPriority(el.Members, el.Capacity, prio, nil)
			if fmt.Sprint(admitted[i]) != fmt.Sprint(want) {
				t.Fatalf("verdict during drain = %v, oracle chose %v", admitted[i], want)
			}
		}
	}
	if msg := ts.expectError(); !bytes.Contains([]byte(msg), []byte("shutting down")) {
		t.Fatalf("terminal frame = %q, want shutting-down notice", msg)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// The engine really did decide those elements before draining.
	in, ok := s.Pool().Get(id)
	if !ok {
		t.Fatal("instance gone after shutdown")
	}
	if got := in.Snapshot().Processed; got != inFlight*batch {
		t.Fatalf("engine processed %d elements, want %d", got, inFlight*batch)
	}
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
// gate: once the per-connection buffers, engine batches and verdict
// masks are warm, a full batch round trip over the real TCP loopback —
// client encode, server decode, shard decide, verdict frame back —
// allocates nothing per element.
func TestStreamSteadyStateAllocs(t *testing.T) {
	inst := uniformInst(t, 200, 16384, 8, 21)
	// A small window keeps the warm-up short: the free mask buffers
	// rotate FIFO, so every one of them must be cycled to high-water.
	s := New(Config{StreamWindow: 4})
	defer s.Shutdown(t.Context())
	addr := startStreamListener(t, s)
	id := register(t, s, inst, 5)

	const batch = 2048
	frames := make([][]byte, 0, len(inst.Elements)/batch)
	for off := 0; off+batch <= len(inst.Elements); off += batch {
		frames = append(frames, wire.AppendElements(nil, inst.Elements[off:off+batch]))
	}
	ts := dialStream(t, addr, id)

	roundTrip := func(k int) {
		if err := ts.fc.WriteFrame(stream.FrameBatch, ts.sent, frames[k]); err != nil {
			t.Fatal(err)
		}
		if err := ts.fc.Flush(); err != nil {
			t.Fatal(err)
		}
		ts.sent++
		typ, _, payload, err := ts.fc.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if typ != stream.FrameVerdicts {
			t.Fatalf("got frame %c (%s), want verdicts", typ, payload)
		}
		ts.recvd++
	}
	// Warm-up: cycle more round trips than window slots and engine
	// free-list batches so every recycled buffer reaches its final size.
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
}

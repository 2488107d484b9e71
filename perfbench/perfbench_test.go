package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net"
	"net/http/httptest"
	"os"
	"slices"
	"testing"
	"time"

	"repro/osp"
	"repro/osp/client"
)

func TestGenerateValidAndSeeded(t *testing.T) {
	cfg := genConfig{M: 500, N: 3000, MinLoad: 2, MaxLoad: 8, Capacity: 2}
	a := generate(cfg, rand.New(rand.NewSource(7)))
	if err := a.Validate(); err != nil {
		t.Fatalf("generated instance is invalid: %v", err)
	}
	if len(a.Weights) != cfg.M || len(a.Elements) < cfg.N {
		t.Fatalf("got %d sets, %d elements", len(a.Weights), len(a.Elements))
	}
	for i, el := range a.Elements[:cfg.N] {
		if l := len(el.Members); l < cfg.MinLoad || l > cfg.MaxLoad {
			t.Fatalf("element %d has load %d outside [%d, %d]", i, l, cfg.MinLoad, cfg.MaxLoad)
		}
	}
	b := generate(cfg, rand.New(rand.NewSource(7)))
	for i := range a.Elements {
		if !slices.Equal(a.Elements[i].Members, b.Elements[i].Members) {
			t.Fatalf("same seed, element %d differs", i)
		}
	}
}

// TestScrapeDeltasAgainstServer drives an in-process admission server
// over HTTP and the stream transport and checks that the delta reader
// sees exactly the work done between two scrapes.
func TestScrapeDeltasAgainstServer(t *testing.T) {
	srv := osp.NewServer(osp.ServerConfig{StreamTimings: true})
	hs := httptest.NewServer(srv)
	defer hs.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeStream(ln) //nolint:errcheck // ends at Shutdown
	defer srv.Shutdown(context.Background())

	ctx := context.Background()
	c, err := client.New(hs.URL, client.WithStreamAddr(ln.Addr().String()))
	if err != nil {
		t.Fatal(err)
	}
	inst := generate(genConfig{M: 64, N: 400, MinLoad: 2, MaxLoad: 4, Capacity: 1}, rand.New(rand.NewSource(1)))
	h, err := c.Register(ctx, client.Spec{Info: osp.InfoOf(inst), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	read := func() scrape {
		text, err := c.Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		s, err := parseScrape(text)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	before := read()
	st, err := h.OpenStream(ctx)
	if err != nil {
		t.Fatal(err)
	}
	const batches = 4
	per := len(inst.Elements) / batches
	for i := 0; i < batches; i++ {
		if err := st.Send(inst.Elements[i*per : (i+1)*per]); err != nil {
			t.Fatal(err)
		}
		if err := st.Recv(func(int, []osp.SetID) {}); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()
	if _, err := h.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	d := promDelta{before, read()}

	if got := d.counter("osp_stream_batches_total", ""); got != batches {
		t.Errorf("Δ stream batches = %v, want %d", got, batches)
	}
	if got := d.counter("osp_engine_processed_elements_total", ""); got != float64(batches*per) {
		t.Errorf("Δ processed elements = %v, want %d", got, batches*per)
	}
	const stage = "osp_stage_duration_seconds"
	for _, s := range []string{"stream_decode", "decide", "queue_wait"} {
		label := `stage="` + s + `"`
		if n := d.counter(stage+"_count", label); n != batches {
			t.Errorf("Δ %s observations = %v, want %d", s, n, batches)
		}
		if m := d.histMean(stage, label); m <= 0 || m > 1 {
			t.Errorf("%s mean = %v s, want a positive latency under a second", s, m)
		}
	}
	if m := d.histMean(stage, `stage="no-such-stage"`); m != 0 {
		t.Errorf("mean of an unobserved stage = %v, want 0", m)
	}
	if got := merge(before, before).total("osp_stream_batches_total", ""); got != 2*before.total("osp_stream_batches_total", "") {
		t.Errorf("merge does not sum equal series: %v", got)
	}
}

func TestParseScrapeRejectsGarbage(t *testing.T) {
	if _, err := parseScrape("osp_x{a=\"b\"} not-a-number\n"); err == nil {
		t.Error("want an error for a non-numeric sample")
	}
	s, err := parseScrape("# HELP x y\nx 1\nx{a=\"1\"} 2\nx{a=\"2\"} 3\n")
	if err != nil {
		t.Fatal(err)
	}
	if s.total("x", `a="1"`) != 2 || s.total("x", "") != 6 || len(s.each("x")) != 3 {
		t.Errorf("unexpected scrape %v", s)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 0, Parent: -1, Name: "round", Start: 0, End: 100 * ms},
		{ID: 1, Parent: 0, Name: "stream", Start: 10 * ms, End: 60 * ms},
		// Overlapping pipelined children cover [20, 50) once, not twice.
		{ID: 2, Parent: 1, Name: "send", Start: 20 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Name: "recv", Start: 30 * ms, End: 50 * ms},
		{ID: 4, Parent: 0, Name: "drain", Start: 70 * ms, End: 90 * ms},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"round": 30 * ms, "stream": 20 * ms, "send": 20 * ms, "recv": 20 * ms, "drain": 20 * ms}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self(%s) = %v, want %v", k, got[k], v)
		}
	}
}

func TestRecorderJSONL(t *testing.T) {
	var nilRec *recorder
	if id := nilRec.begin("x", -1, -1); id != -1 {
		t.Fatalf("nil recorder begin = %d, want -1", id)
	}
	nilRec.end(-1)

	rec := newRecorder()
	root := rec.begin("round", -1, -1)
	child := rec.begin("client.send", root, 7)
	rec.end(child)
	rec.end(root)
	var buf bytes.Buffer
	if err := rec.writeJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(&buf)
	var got []span
	for dec.More() {
		var s span
		if err := dec.Decode(&s); err != nil {
			t.Fatal(err)
		}
		got = append(got, s)
	}
	if len(got) != 2 || got[1].Parent != root || got[1].Batch != 7 || got[1].End < got[1].Start {
		t.Errorf("round trip = %+v", got)
	}
	if len(rec.durations("client.send")) != 1 {
		t.Error("durations misses the span")
	}
}

func TestProcReaders(t *testing.T) {
	d, err := parseStatCPU([]byte("42 (a b) c) S 1 1 1 0 -1 4194560 10 0 0 0 250 50 0 0 20 0 1 0"))
	if err != nil {
		t.Fatal(err)
	}
	if d != 300*clockTick {
		t.Errorf("parseStatCPU = %v, want %v", d, 300*clockTick)
	}
	if _, err := parseStatCPU([]byte("42 (x) S 1")); err == nil {
		t.Error("want an error for a short stat line")
	}
	if _, err := procCPU(os.Getpid()); err != nil {
		t.Error(err)
	}
	if rss, err := peakRSSMB(os.Getpid()); err != nil || rss <= 0 {
		t.Errorf("peakRSSMB = %v, %v", rss, err)
	}
	busy := time.Now()
	for time.Since(busy) < 20*time.Millisecond {
	}
	if selfCPU() <= 0 {
		t.Error("selfCPU reports no CPU time")
	}
}

func TestQuantile(t *testing.T) {
	vals := []float64{4, 1, 3, 2}
	if m := median(vals); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	if q := quantile(vals, 1); q != 4 {
		t.Errorf("max quantile = %v, want 4", q)
	}
}

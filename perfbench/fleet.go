package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/osp"
	"repro/osp/client"
)

// fleet is the system under test: one ospserve process driven through
// osp/client, or several driven through an in-benchmark
// cluster.Coordinator.
type fleet struct {
	servers []*server
	rss     *rssSampler
	client  *client.Client       // single node
	co      *cluster.Coordinator // several nodes
}

// startFleet spawns every node, waits until all listen, and connects.
func startFleet(bin string, nodes int, traced bool) (*fleet, error) {
	f := &fleet{}
	for i := 0; i < nodes; i++ {
		name := ""
		if nodes > 1 {
			name = fmt.Sprintf("node-%d", i)
		}
		s, err := spawnServer(bin, traced, name)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.servers = append(f.servers, s)
	}
	var pids []int
	for _, s := range f.servers {
		if err := s.waitReady(30 * time.Second); err != nil {
			f.stop()
			return nil, err
		}
		pids = append(pids, s.pid())
	}
	f.rss = startRSSSampler(pids)
	var err error
	if nodes == 1 {
		s := f.servers[0]
		f.client, err = client.New(s.http, client.WithStreamAddr(s.stream))
	} else {
		cfg := cluster.Config{StreamConns: 1}
		for _, s := range f.servers {
			cfg.Nodes = append(cfg.Nodes, cluster.Node{BaseURL: s.http, StreamAddr: s.stream})
		}
		f.co, err = cluster.New(cfg)
	}
	if err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

// stop shuts every node down gracefully and waits for it.
func (f *fleet) stop() {
	if f.co != nil {
		f.co.Close() //nolint:errcheck // teardown; the nodes are stopped next
	}
	if f.rss != nil {
		f.rss.close()
		f.rss = nil
	}
	for _, s := range f.servers {
		s.stop(20 * time.Second)
	}
	f.servers = nil
}

// peakRSSMB is the largest peak RSS over the nodes.
func (f *fleet) peakRSSMB() (float64, error) {
	peak := 0.0
	for _, s := range f.servers {
		v, err := peakRSSMB(s.pid())
		if err != nil {
			return 0, err
		}
		peak = max(peak, v)
	}
	return peak, nil
}

// serverCPU is the nodes' summed CPU time.
func (f *fleet) serverCPU() (time.Duration, error) {
	var total time.Duration
	for _, s := range f.servers {
		d, err := procCPU(s.pid())
		if err != nil {
			return 0, err
		}
		total += d
	}
	return total, nil
}

// scrapes reads every node's /metrics (merged) and, for a cluster, the
// coordinator's exposition.
func (f *fleet) scrapes(ctx context.Context) (nodes, coord scrape, err error) {
	var each []scrape
	for _, s := range f.servers {
		c, err := client.New(s.http)
		if err != nil {
			return nil, nil, err
		}
		text, err := c.Metrics(ctx)
		if err != nil {
			return nil, nil, err
		}
		sc, err := parseScrape(text)
		if err != nil {
			return nil, nil, err
		}
		each = append(each, sc)
	}
	coord = scrape{}
	if f.co != nil {
		var b strings.Builder
		f.co.WriteMetrics(&b)
		if coord, err = parseScrape(b.String()); err != nil {
			return nil, nil, err
		}
	}
	return merge(each...), coord, nil
}

// handle is one registered instance, ready to stream.
type handle interface {
	// stream sends every batch of in, one at a time, and returns the
	// admitted memberships its verdicts reported. t times each batch.
	stream(ctx context.Context, in *input, t *tap) (admitted int, err error)
	// drain ends the stream and returns the drained Result.
	drain(ctx context.Context) (*osp.Result, error)
	// remove frees the instance on every node.
	remove(ctx context.Context) error
	// shards is the server-side engine's shard count.
	shards() int
}

// register registers in on the fleet and opens its stream (single node)
// or its coordinator instance (cluster). rec, when tracing, gets a span
// named after the call, under parent.
func (f *fleet) register(ctx context.Context, in *input, rec *recorder, parent int) (handle, error) {
	var eng osp.EngineConfig // the server's default shard count
	if f.co != nil {
		id := rec.begin("cluster.register", parent, -1)
		ci, err := f.co.Register(ctx, cluster.Spec{Info: in.info, Seed: in.seed, Engine: eng, FanOut: true})
		rec.end(id)
		if err != nil {
			return nil, err
		}
		return &clusterHandle{f: f, in: ci}, nil
	}
	id := rec.begin("client.register", parent, -1)
	inst, err := f.client.Register(ctx, client.Spec{Info: in.info, Seed: in.seed, Engine: eng})
	rec.end(id)
	if err != nil {
		return nil, err
	}
	id = rec.begin("client.open_stream", parent, -1)
	st, err := inst.OpenStream(ctx)
	rec.end(id)
	if err != nil {
		inst.Remove(ctx) //nolint:errcheck // the open error is the one to report
		return nil, err
	}
	return &nodeHandle{inst: inst, st: st}, nil
}

// tap times each batch of a stream: before runs just before batch i goes
// out, after just after its verdicts are in, and spans of the calls into
// the client or coordinator go to rec under parent.
type tap struct {
	before, after func(i int)
	rec           *recorder
	parent        int
}

// nodeHandle is an instance on one node, streamed over client.Stream.
type nodeHandle struct {
	inst *client.Instance
	st   *client.Stream
}

func (h *nodeHandle) shards() int { return h.inst.Shards() }

func (h *nodeHandle) stream(_ context.Context, in *input, t *tap) (int, error) {
	admitted := 0
	fn := func(_ int, a []osp.SetID) { admitted += len(a) }
	for i, b := range in.batches {
		t.before(i)
		id := t.rec.begin("client.send", t.parent, i)
		err := h.st.Send(b)
		t.rec.end(id)
		if err != nil {
			return admitted, err
		}
		id = t.rec.begin("client.recv", t.parent, i)
		err = h.st.Recv(fn)
		t.rec.end(id)
		if err != nil {
			return admitted, err
		}
		t.after(i)
	}
	return admitted, nil
}

func (h *nodeHandle) drain(ctx context.Context) (*osp.Result, error) {
	err := h.st.CloseSend()
	for err == nil {
		err = h.st.Recv(func(int, []osp.SetID) {})
	}
	h.st.Close() //nolint:errcheck // the fin handshake above is the check
	if !errors.Is(err, io.EOF) {
		return nil, fmt.Errorf("close stream: %w", err)
	}
	return h.inst.Drain(ctx)
}

func (h *nodeHandle) remove(ctx context.Context) error { return h.inst.Remove(ctx) }

// clusterHandle is a fan-out instance on the coordinator. Ingest forwards
// a batch's shares and returns once every node has answered.
type clusterHandle struct {
	f  *fleet
	in *cluster.Instance
}

func (h *clusterHandle) shards() int { return 0 }

func (h *clusterHandle) stream(ctx context.Context, in *input, t *tap) (int, error) {
	// Ingest serializes the callback across node goroutines and returns
	// after all of them, so the counter needs no further locking.
	admitted := 0
	fn := func(_ int, a []osp.SetID) { admitted += len(a) }
	for i, b := range in.batches {
		t.before(i)
		id := t.rec.begin("cluster.ingest", t.parent, i)
		err := h.in.Ingest(ctx, b, fn)
		t.rec.end(id)
		if err != nil {
			return admitted, err
		}
		t.after(i)
	}
	return admitted, nil
}

func (h *clusterHandle) drain(ctx context.Context) (*osp.Result, error) { return h.in.Drain(ctx) }

// remove deletes the instance's per-node shares; the coordinator has no
// removal call, so this goes through each node's HTTP API.
func (h *clusterHandle) remove(ctx context.Context) error {
	for _, s := range h.f.servers {
		c, err := client.New(s.http)
		if err != nil {
			return err
		}
		list, err := c.Instances(ctx)
		if err != nil {
			return err
		}
		for _, st := range list {
			req, err := http.NewRequestWithContext(ctx, http.MethodDelete, s.http+"/v1/instances/"+st.ID, nil)
			if err != nil {
				return err
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				return err
			}
			resp.Body.Close()
			if resp.StatusCode >= 300 {
				return fmt.Errorf("remove %s on %s: status %d", st.ID, s.http, resp.StatusCode)
			}
		}
	}
	return nil
}

package cluster

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/hashpr"
	"repro/internal/obs"
	"repro/osp"
	"repro/osp/client"
)

// Node names one admission-service node of the fleet.
type Node struct {
	// BaseURL is the node's HTTP API, e.g. "http://10.0.0.7:8080".
	BaseURL string
	// StreamAddr, when set, is the node's raw-TCP stream listener
	// (ospserve -stream-listen), which the node's verdict stream then
	// dials; empty, the stream is an HTTP/1.1 Upgrade of BaseURL's
	// listener.
	StreamAddr string
}

// Config assembles a Coordinator.
type Config struct {
	// Nodes is the fleet, in slot order. Slot indices are the stable
	// identity: a replacement node (ReplaceNode) takes over its
	// predecessor's slot, key range and fan-out shares.
	Nodes []Node
	// Journal retains every acknowledged element share per node so
	// failover is exact: a replacement node receives the dead node's
	// full element history after it is re-registered, and the
	// merged drain is bit-for-bit equal to an uninterrupted run. Off,
	// failover loses the elements the dead node had acknowledged —
	// counted per instance (Instance.Lost) and in the cluster metrics —
	// and resends only the unacknowledged in-flight shares. The cost is
	// O(elements) coordinator memory per live instance.
	Journal bool
	// StreamConns is the number of stream connections per node and
	// instance. Only 0 or 1 is accepted: one connection reaches every
	// shard of the node's engine, so New rejects any other value.
	StreamConns int
	// Retry, when set, threads a deadline-budgeted retry policy through
	// every node client's ingest and drain paths (client.WithRetry) — a
	// share hitting a node mid-restart is retried under backoff before
	// the coordinator declares the forward failed and retains it.
	Retry *client.RetryPolicy
}

// Spec describes one cluster-level instance registration.
type Spec struct {
	// Info is the up-front information (weights, sizes).
	Info osp.Info
	// Seed is the shared policy seed — every node derives the identical
	// policy state from it, which is what makes placement free and
	// failover a replay.
	Seed uint64
	// Engine sizes the engine on EACH hosting node (Shards is shards
	// per node, so a fan-out instance on N nodes runs N×Shards shard
	// workers fleet-wide) and names the admission policy.
	Engine osp.EngineConfig
	// FanOut splits the instance's element stream across every node by
	// element hash — the engine's shard split lifted one level. False
	// pins the whole instance to the slot the ring assigns its ID.
	FanOut bool
	// Label tags the instance's metrics series.
	Label string
}

// NodeError reports a failed operation against one node, carrying the
// slot so the caller knows which ReplaceNode would repair it.
type NodeError struct {
	// Slot is the node's position in Config.Nodes.
	Slot int
	// Node is the node's HTTP base URL.
	Node string
	// Err is the underlying client error.
	Err error
}

// Error implements error.
func (e *NodeError) Error() string {
	return fmt.Sprintf("cluster: node %d (%s): %v", e.Slot, e.Node, e.Err)
}

// Unwrap returns the underlying client error.
func (e *NodeError) Unwrap() error { return e.Err }

// member is one live node: its client plus per-node traffic counters
// (reset when a replacement takes the slot — the series' addr label
// changes with it).
type member struct {
	slot     int
	cfg      Node
	c        *client.Client
	batches  atomic.Uint64
	elements atomic.Uint64
	errs     atomic.Uint64
}

func dialMember(slot int, cfg Node, retry *client.RetryPolicy) (*member, error) {
	var opts []client.Option
	if cfg.StreamAddr != "" {
		opts = append(opts, client.WithStreamAddr(cfg.StreamAddr))
	}
	if retry != nil {
		opts = append(opts, client.WithRetry(*retry))
	}
	c, err := client.New(cfg.BaseURL, opts...)
	if err != nil {
		return nil, fmt.Errorf("cluster: node %d: %w", slot, err)
	}
	return &member{slot: slot, cfg: cfg, c: c}, nil
}

// Coordinator is the cluster's front door: it owns instance placement,
// forwards ingest to the owning nodes, merges drains, and replays each
// instance's Spec onto replacement nodes. The Instances it holds are its
// only record of the registrations: they live in memory, with the
// journal and the retained shares, for the life of the process. Safe
// for concurrent use; concurrent Ingest calls on ONE instance serialize
// (per-node element order is part of the arrival order the oracle sees).
type Coordinator struct {
	journal bool
	ring    *Ring
	retry   *client.RetryPolicy

	mu     sync.Mutex
	nodes  []*member
	insts  map[string]*Instance
	health *Monitor // attached by StartHealth, nil without one
	nextID int

	failovers atomic.Uint64
	resent    atomic.Uint64
	lost      atomic.Uint64
	forward   obs.Histogram // per-batch forward latency, all shares sent and answered
}

// New builds a Coordinator over the given fleet. Nodes are dialed
// lazily — construction does not require the fleet to be up.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Nodes) == 0 {
		return nil, errors.New("cluster: at least one node required")
	}
	if cfg.StreamConns < 0 || cfg.StreamConns > 1 {
		return nil, fmt.Errorf("cluster: StreamConns %d, want 0 or 1 (one stream connection per node)", cfg.StreamConns)
	}
	co := &Coordinator{
		journal: cfg.Journal,
		ring:    NewRing(len(cfg.Nodes)),
		retry:   cfg.Retry,
		nodes:   make([]*member, len(cfg.Nodes)),
		insts:   make(map[string]*Instance),
	}
	for i, n := range cfg.Nodes {
		m, err := dialMember(i, n, cfg.Retry)
		if err != nil {
			return nil, err
		}
		co.nodes[i] = m
	}
	return co, nil
}

// Nodes returns the current fleet in slot order (replacements included).
func (co *Coordinator) Nodes() []Node {
	co.mu.Lock()
	defer co.mu.Unlock()
	out := make([]Node, len(co.nodes))
	for i, m := range co.nodes {
		out[i] = m.cfg
	}
	return out
}

// Instance is a handle to one cluster-level instance: its Spec and one
// host record per hosting slot, which holds everything the coordinator
// keeps for that node — the node's instance handle, what it
// acknowledged, and the shares a failover replay resends.
type Instance struct {
	co    *Coordinator
	id    string
	spec  Spec
	mixer hashpr.Mixer

	mu      sync.Mutex
	hosts   []host // by ascending slot; the slots never change
	lost    uint64
	drained *osp.Result
	shares  []client.Share // the batch in flight, reused across batches
}

// host is one hosting slot of an instance.
type host struct {
	slot    int
	handle  *client.Instance // the node's instance
	acked   int              // elements the node acknowledged
	journal [][]osp.Element  // acked shares (Config.Journal)
	failed  [][]osp.Element  // unacked in-flight shares, in order

	// A fan-out batch's part for this slot, in reused scratch.
	els   []osp.Element
	idx   []int                             // batch index of each element of els
	fn    func(i int, admitted []osp.SetID) // the caller's callback for the batch
	remap func(i int, admitted []osp.SetID) // h.verdict, bound once
}

// verdict hands one element's verdict to the caller under its batch index.
func (h *host) verdict(i int, admitted []osp.SetID) { h.fn(h.idx[i], admitted) }

// Register places a new instance on the fleet: on every node when
// spec.FanOut, else on the single slot the consistent-hash ring assigns
// its ID. The returned Instance keeps spec, which is all ReplaceNode
// needs to re-register it on a replacement node. If any node refuses
// the registration, the nodes that accepted it are told to remove
// theirs (best effort) and the error is that node's *NodeError.
func (co *Coordinator) Register(ctx context.Context, spec Spec) (*Instance, error) {
	if len(spec.Info.Weights) == 0 {
		return nil, errors.New("cluster: register: at least one set required")
	}
	if len(spec.Info.Weights) != len(spec.Info.Sizes) {
		return nil, fmt.Errorf("cluster: register: %d weights but %d sizes",
			len(spec.Info.Weights), len(spec.Info.Sizes))
	}
	co.mu.Lock()
	id := fmt.Sprintf("c-%d", co.nextID)
	co.nextID++
	co.mu.Unlock()

	in := &Instance{co: co, id: id, spec: spec, mixer: hashpr.Mixer{Seed: spec.Seed}}
	if spec.FanOut {
		in.hosts = make([]host, co.ring.Slots())
		for k := range in.hosts {
			in.hosts[k].slot = k
		}
	} else {
		in.hosts = []host{{slot: co.ring.Lookup(id)}}
	}
	for k := range in.hosts {
		h := &in.hosts[k]
		h.remap = h.verdict
		m := co.memberAt(h.slot)
		ci, err := m.c.Register(ctx, clientSpec(spec))
		if err != nil {
			// Nothing holds the partial registration, so nothing could
			// ever drain or remove it: undo it on the nodes that took it.
			for _, accepted := range in.hosts[:k] {
				accepted.handle.Remove(ctx) //nolint:errcheck // best effort; the refusal is the error to report
			}
			return nil, &NodeError{Slot: h.slot, Node: m.cfg.BaseURL, Err: err}
		}
		h.handle = ci
	}
	co.mu.Lock()
	co.insts[id] = in
	co.mu.Unlock()
	return in, nil
}

func clientSpec(spec Spec) client.Spec {
	return client.Spec{Info: spec.Info, Seed: spec.Seed, Engine: spec.Engine, Label: spec.Label}
}

func (co *Coordinator) memberAt(slot int) *member {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.nodes[slot]
}

// ID returns the coordinator-level instance identifier.
func (in *Instance) ID() string { return in.id }

// Slots returns the hosting slot indices, ascending: one for a pinned
// instance, all of them for fan-out.
func (in *Instance) Slots() []int {
	out := make([]int, len(in.hosts))
	for k := range in.hosts {
		out[k] = in.hosts[k].slot
	}
	return out
}

// Owner returns the hosting slot that decides el — the fan-out hash for
// a split instance, the pinned slot otherwise. Exported so tests (and
// routing-aware clients) can predict placement.
func (in *Instance) Owner(el osp.Element) int {
	if len(in.hosts) == 1 {
		return in.hosts[0].slot
	}
	return in.hosts[ownerOf(in.mixer, el, len(in.hosts))].slot
}

// host returns the record of a slot the instance is hosted on, nil if
// it is not.
func (in *Instance) host(slot int) *host {
	for k := range in.hosts {
		if in.hosts[k].slot == slot {
			return &in.hosts[k]
		}
	}
	return nil
}

// Lost returns the number of elements lost to failovers on this
// instance: always 0 with Config.Journal, else the elements the dead
// nodes had acknowledged before dying. The merged drain equals the
// serial oracle over the surviving (= all minus lost) element
// subsequence.
func (in *Instance) Lost() uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.lost
}

// Ingest forwards one batch of elements in arrival order: pinned
// instances ship the whole batch to their node, fan-out instances
// scatter elements to their owning nodes by element hash. Every share
// is sent before any is received, so the nodes decide their shares
// concurrently, and all of it runs on the calling goroutine
// (client.IngestShares). fn — optional, may be nil — receives every
// element's admitted parent sets with i the element's index in els; it
// runs on the calling goroutine, share by share in ascending slot
// order. The admitted slice is reused scratch, valid only during the
// callback.
//
// On a node failure the failed share is RETAINED (not lost, not
// re-scattered — surviving nodes' shares were acknowledged and must not
// be double-ingested) and the error is a *NodeError naming the slot;
// ReplaceNode resends retained shares onto the replacement. Elements
// handed to Ingest are referenced until then — callers must not mutate
// them afterwards.
//
// With a health monitor attached (StartHealth), a *NodeError does not
// surface immediately: Ingest blocks — the backpressure a dying node
// earns — until a failover's replay has resent the retained share onto
// the replacement, then returns nil. The rode-through share's verdict
// callbacks are skipped (its verdicts happened during the replay);
// surviving shares' fired normally. Only when no failover rescues the
// share within the monitor's FailoverBudget does the *NodeError reach
// the caller.
func (in *Instance) Ingest(ctx context.Context, els []osp.Element, fn func(i int, admitted []osp.SetID)) error {
	err := in.ingestOnce(ctx, els, fn)
	if err == nil {
		return nil
	}
	var ne *NodeError
	if !errors.As(err, &ne) {
		return err
	}
	m := in.co.healthMonitor()
	if m == nil {
		return err
	}
	if in.rideThrough(ctx, m.cfg.failoverBudget()) {
		return nil
	}
	return err
}

// ingestOnce is one forwarding pass; failed shares are retained for the
// failover replay.
func (in *Instance) ingestOnce(ctx context.Context, els []osp.Element, fn func(i int, admitted []osp.SetID)) error {
	if len(els) == 0 {
		return errors.New("cluster: ingest: empty batch")
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.drained != nil {
		return fmt.Errorf("cluster: ingest: instance %s is already drained", in.id)
	}
	in.scatter(els, fn)

	start := time.Now()
	client.IngestShares(ctx, in.shares)
	in.co.forward.Observe(time.Since(start))

	// The shares follow the hosts' order, one per host that owns an
	// element of the batch.
	var firstErr error
	shares := in.shares
	for k := range in.hosts {
		h := &in.hosts[k]
		if len(shares) == 0 || shares[0].In != h.handle {
			continue
		}
		s := &shares[0]
		shares = shares[1:]
		m := in.co.memberAt(h.slot)
		if s.Err != nil {
			m.errs.Add(1)
			h.failed = append(h.failed, retain(s.Els))
			if firstErr == nil {
				firstErr = &NodeError{Slot: h.slot, Node: m.cfg.BaseURL, Err: s.Err}
			}
			continue
		}
		m.batches.Add(1)
		m.elements.Add(uint64(len(s.Els)))
		h.acked += len(s.Els)
		if in.co.journal {
			h.journal = append(h.journal, retain(s.Els))
		}
	}
	return firstErr
}

// scatter lays the batch out as in.shares: the caller's batch itself
// for a pinned instance, else one share per host that owns at least
// one element (a node refuses an empty batch), each built in its
// host's reused scratch.
func (in *Instance) scatter(els []osp.Element, fn func(i int, admitted []osp.SetID)) {
	in.shares = in.shares[:0]
	if len(in.hosts) == 1 {
		in.shares = append(in.shares, client.Share{In: in.hosts[0].handle, Els: els, Fn: fn})
		return
	}
	for k := range in.hosts {
		h := &in.hosts[k]
		h.els, h.idx = h.els[:0], h.idx[:0]
	}
	for i, el := range els {
		h := &in.hosts[ownerOf(in.mixer, el, len(in.hosts))]
		h.els = append(h.els, el)
		h.idx = append(h.idx, i)
	}
	for k := range in.hosts {
		h := &in.hosts[k]
		if len(h.els) == 0 {
			continue
		}
		s := client.Share{In: h.handle, Els: h.els}
		if fn != nil {
			h.fn = fn
			s.Fn = h.remap
		}
		in.shares = append(in.shares, s)
	}
}

// retain copies a share out of the caller's batch or the host scratch
// for the journal or the failover replay, which keep it.
func retain(els []osp.Element) []osp.Element { return append([]osp.Element(nil), els...) }

// Drain closes the instance's stream on every hosting node and merges
// the per-node results exactly like engine.Drain merges shard counts:
// Assigned counters sum (integer counts commute), then completion and
// benefit are recomputed from the summed counts in ascending set order
// — so the merged Result is bit-for-bit equal to a single-node drain
// and to the serial oracle over the same elements. The hosting nodes
// drain concurrently; the counts merge in slot order, and when several
// fail the error names the lowest failing slot. Idempotent.
func (in *Instance) Drain(ctx context.Context) (*osp.Result, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.drained != nil {
		return in.drained, nil
	}
	m := len(in.spec.Info.Weights)
	results := make([]*osp.Result, len(in.hosts))
	errs := make([]error, len(in.hosts))
	var wg sync.WaitGroup
	for k := range in.hosts {
		ci := in.hosts[k].handle
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[k], errs[k] = ci.Drain(ctx)
		}()
	}
	wg.Wait()
	total := make([]int32, m)
	for k := range in.hosts {
		err := errs[k]
		if err == nil && len(results[k].Assigned) != m {
			err = fmt.Errorf("drain returned %d assignment counters, want %d", len(results[k].Assigned), m)
		}
		if err != nil {
			slot := in.hosts[k].slot
			return nil, &NodeError{Slot: slot, Node: in.co.memberAt(slot).cfg.BaseURL, Err: err}
		}
		for i, c := range results[k].Assigned {
			total[i] += c
		}
	}
	res := core.ResultFromCounts(in.spec.Info, total)
	in.drained = res
	// The stream is closed: retained shares and batch scratch have
	// served their purpose.
	for k := range in.hosts {
		h := &in.hosts[k]
		h.journal, h.failed, h.els, h.idx = nil, nil, nil, nil
	}
	in.shares = nil
	return res, nil
}

// ReplaceNode brings a replacement node into the dead node's slot and
// replays it to parity: every instance hosted on the slot is
// re-registered from the Spec its Instance holds (same Info, same seed
// — the policy contract makes the replica's state identical by
// construction), then the retained element shares are resent in order:
// the journaled acked history first when Config.Journal (exact
// recovery), then the unacknowledged in-flight shares (always
// retained). Without the journal the dead node's acked elements are
// gone — ReplaceNode accounts them via Instance.Lost and the cluster
// metrics rather than pretending.
//
// Concurrent Ingest calls on an affected instance serialize with the
// replay on the instance lock: a call that lands before the replay
// fails against the dead node and its share joins the retained set; a
// call after proceeds against the replacement.
func (co *Coordinator) ReplaceNode(ctx context.Context, slot int, replacement Node) error {
	if err := co.ring.validateSlot(slot); err != nil {
		return err
	}
	m, err := dialMember(slot, replacement, co.retry)
	if err != nil {
		return err
	}
	co.mu.Lock()
	co.nodes[slot] = m
	affected := make([]*Instance, 0, len(co.insts))
	for _, in := range co.insts {
		if in.host(slot) != nil {
			affected = append(affected, in)
		}
	}
	co.mu.Unlock()
	sort.Slice(affected, func(i, j int) bool { return affected[i].id < affected[j].id })
	co.failovers.Add(1)
	for _, in := range affected {
		if err := in.rehome(ctx, in.host(slot), m); err != nil {
			return err
		}
	}
	return nil
}

// rehome re-registers this instance on the host's replacement node and
// resends the retained shares.
func (in *Instance) rehome(ctx context.Context, h *host, m *member) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.drained != nil {
		return nil
	}
	h.handle.Close() //nolint:errcheck // the node behind it is dead
	ci, err := m.c.Register(ctx, clientSpec(in.spec))
	if err != nil {
		return &NodeError{Slot: h.slot, Node: m.cfg.BaseURL, Err: fmt.Errorf("replay register: %w", err)}
	}
	h.handle = ci
	if !in.co.journal {
		in.lost += uint64(h.acked)
		in.co.lost.Add(uint64(h.acked))
	}
	h.acked = 0
	resend := slices.Concat(h.journal, h.failed)
	h.journal, h.failed = nil, nil
	for k, els := range resend {
		if err := ci.IngestFunc(ctx, els, nil); err != nil {
			// The replacement failed mid-replay: retain what it has not
			// acknowledged so a further ReplaceNode can still recover.
			h.failed = append(h.failed, resend[k:]...)
			m.errs.Add(1)
			return &NodeError{Slot: h.slot, Node: m.cfg.BaseURL, Err: fmt.Errorf("replay ingest: %w", err)}
		}
		in.co.resent.Add(uint64(len(els)))
		m.batches.Add(1)
		m.elements.Add(uint64(len(els)))
		h.acked += len(els)
		if in.co.journal {
			h.journal = append(h.journal, els)
		}
	}
	return nil
}

// Close releases every instance's pinned streams. Instances are not
// drained — Close is teardown, not completion.
func (co *Coordinator) Close() error {
	co.mu.Lock()
	insts := make([]*Instance, 0, len(co.insts))
	for _, in := range co.insts {
		insts = append(insts, in)
	}
	co.mu.Unlock()
	var first error
	for _, in := range insts {
		in.mu.Lock()
		for _, h := range in.hosts {
			if err := h.handle.Close(); err != nil && first == nil {
				first = err
			}
		}
		in.mu.Unlock()
	}
	return first
}

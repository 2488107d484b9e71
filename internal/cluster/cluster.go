package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
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
	// StreamAddr is the node's raw-TCP stream listener (ospserve
	// -stream-listen). The coordinator forwards ingest over a verdict
	// stream either way (client.IngestShares): dialed here when
	// set, an HTTP/1.1 Upgrade of BaseURL's listener when empty.
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
	// HTTPClient overrides the http.Client used for every node;
	// nil means one shared plain &http.Client{}.
	HTTPClient *http.Client
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

func dialMember(slot int, cfg Node, hc *http.Client, retry *client.RetryPolicy) (*member, error) {
	opts := []client.Option{client.WithHTTPClient(hc)}
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
	httpc   *http.Client
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
	hc := cfg.HTTPClient
	if hc == nil {
		hc = &http.Client{}
	}
	co := &Coordinator{
		journal: cfg.Journal,
		ring:    NewRing(len(cfg.Nodes)),
		httpc:   hc,
		retry:   cfg.Retry,
		nodes:   make([]*member, len(cfg.Nodes)),
		insts:   make(map[string]*Instance),
	}
	for i, n := range cfg.Nodes {
		m, err := dialMember(i, n, hc, cfg.Retry)
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

// Instance is a handle to one cluster-level instance: its Spec, its
// hosting slots, per-node client handles, and the retained element
// shares that make failover exact (journal) or accounted (Lost).
type Instance struct {
	co     *Coordinator
	id     string
	spec   Spec
	fanOut bool
	mixer  hashpr.Mixer
	slots  []int // hosting slots, ascending

	mu      sync.Mutex
	handles map[int]*client.Instance
	journal map[int][][]osp.Element // acked shares per slot (Config.Journal)
	acked   map[int]int             // acked elements per slot
	failed  map[int][][]osp.Element // unacked in-flight shares per slot, in order
	lost    uint64
	drained *osp.Result

	// Scratch for the batch in flight, reused across batches: a fan-out
	// instance's part per hosting slot, the batch's shares, and the slot
	// each share goes to.
	parts      []part
	shares     []client.Share
	shareSlots []int
}

// part is one hosting slot's slice of a fan-out batch.
type part struct {
	slot  int
	els   []osp.Element
	idx   []int                             // batch index of each element of els
	fn    func(i int, admitted []osp.SetID) // the caller's callback for the batch
	remap func(i int, admitted []osp.SetID) // p.verdict, bound once
}

// verdict hands one element's verdict to the caller under its batch index.
func (p *part) verdict(i int, admitted []osp.SetID) { p.fn(p.idx[i], admitted) }

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

	var slots []int
	if spec.FanOut && co.ring.Slots() > 1 {
		slots = make([]int, co.ring.Slots())
		for i := range slots {
			slots[i] = i
		}
	} else {
		slots = []int{co.ring.Lookup(id)}
	}
	in := &Instance{
		co: co, id: id, spec: spec,
		fanOut:  len(slots) > 1,
		mixer:   hashpr.Mixer{Seed: spec.Seed},
		slots:   slots,
		handles: make(map[int]*client.Instance, len(slots)),
		journal: make(map[int][][]osp.Element),
		acked:   make(map[int]int, len(slots)),
		failed:  make(map[int][][]osp.Element),
	}
	if in.fanOut {
		in.parts = make([]part, len(slots))
		for k := range in.parts {
			p := &in.parts[k]
			p.slot = slots[k]
			p.remap = p.verdict
		}
	}
	for _, slot := range slots {
		m := co.memberAt(slot)
		h, err := m.c.Register(ctx, clientSpec(spec))
		if err != nil {
			// Nothing holds the partial registration, so nothing could
			// ever drain or remove it: undo it on the nodes that took it.
			for _, accepted := range in.handles {
				accepted.Remove(ctx) //nolint:errcheck // best effort; the refusal is the error to report
			}
			return nil, &NodeError{Slot: slot, Node: m.cfg.BaseURL, Err: err}
		}
		in.handles[slot] = h
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
func (in *Instance) Slots() []int { return append([]int(nil), in.slots...) }

// Owner returns the hosting slot that decides el — the fan-out hash for
// a split instance, the pinned slot otherwise. Exported so tests (and
// routing-aware clients) can predict placement.
func (in *Instance) Owner(el osp.Element) int {
	if !in.fanOut {
		return in.slots[0]
	}
	return in.slots[ownerOf(in.mixer, el, len(in.slots))]
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
// With a health monitor attached and AutoFailover armed (StartHealth),
// a *NodeError does not surface immediately: Ingest blocks — the
// backpressure a dying node earns — until the automatic failover's
// replay has resent the retained share onto the replacement, then
// returns nil. The rode-through share's verdict callbacks are skipped
// (its verdicts happened during the replay); surviving shares' fired
// normally. Only when no failover rescues the share within the
// monitor's budget does the *NodeError reach the caller.
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
	if m == nil || !m.cfg.AutoFailover {
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

	var firstErr error
	for k := range in.shares {
		s := &in.shares[k]
		slot := in.shareSlots[k]
		m := in.co.memberAt(slot)
		if s.Err != nil {
			m.errs.Add(1)
			in.failed[slot] = append(in.failed[slot], retain(s.Els))
			if firstErr == nil {
				firstErr = &NodeError{Slot: slot, Node: m.cfg.BaseURL, Err: s.Err}
			}
			continue
		}
		m.batches.Add(1)
		m.elements.Add(uint64(len(s.Els)))
		in.acked[slot] += len(s.Els)
		if in.co.journal {
			in.journal[slot] = append(in.journal[slot], retain(s.Els))
		}
	}
	return firstErr
}

// scatter lays the batch out as in.shares: the whole batch for a pinned
// instance, else one share per slot that owns at least one element (a
// node refuses an empty batch), each built in its part's reused scratch.
func (in *Instance) scatter(els []osp.Element, fn func(i int, admitted []osp.SetID)) {
	in.shares, in.shareSlots = in.shares[:0], in.shareSlots[:0]
	if !in.fanOut {
		in.shares = append(in.shares, client.Share{In: in.handles[in.slots[0]], Els: els, Fn: fn})
		in.shareSlots = append(in.shareSlots, in.slots[0])
		return
	}
	for k := range in.parts {
		p := &in.parts[k]
		p.els, p.idx = p.els[:0], p.idx[:0]
	}
	for i, el := range els {
		p := &in.parts[ownerOf(in.mixer, el, len(in.parts))]
		p.els = append(p.els, el)
		p.idx = append(p.idx, i)
	}
	for k := range in.parts {
		p := &in.parts[k]
		if len(p.els) == 0 {
			continue
		}
		s := client.Share{In: in.handles[p.slot], Els: p.els}
		if fn != nil {
			p.fn = fn
			s.Fn = p.remap
		}
		in.shares = append(in.shares, s)
		in.shareSlots = append(in.shareSlots, p.slot)
	}
}

// retain copies a share out of the caller's batch or the part scratch
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
	results := make([]*osp.Result, len(in.slots))
	errs := make([]error, len(in.slots))
	var wg sync.WaitGroup
	for k, slot := range in.slots {
		h := in.handles[slot]
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[k], errs[k] = h.Drain(ctx)
		}()
	}
	wg.Wait()
	total := make([]int32, m)
	for k, slot := range in.slots {
		err := errs[k]
		if err == nil && len(results[k].Assigned) != m {
			err = fmt.Errorf("drain returned %d assignment counters, want %d", len(results[k].Assigned), m)
		}
		if err != nil {
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
	in.journal = nil
	in.failed = nil
	in.parts, in.shares, in.shareSlots = nil, nil, nil
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
	m, err := dialMember(slot, replacement, co.httpc, co.retry)
	if err != nil {
		return err
	}
	co.mu.Lock()
	co.nodes[slot] = m
	affected := make([]*Instance, 0, len(co.insts))
	for _, in := range co.insts {
		for _, s := range in.slots {
			if s == slot {
				affected = append(affected, in)
				break
			}
		}
	}
	co.mu.Unlock()
	sort.Slice(affected, func(i, j int) bool { return affected[i].id < affected[j].id })
	co.failovers.Add(1)
	for _, in := range affected {
		if err := in.rehome(ctx, slot, m); err != nil {
			return err
		}
	}
	return nil
}

// rehome re-registers this instance on the slot's replacement node and
// resends the retained shares.
func (in *Instance) rehome(ctx context.Context, slot int, m *member) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.drained != nil {
		return nil
	}
	if old := in.handles[slot]; old != nil {
		old.Close() //nolint:errcheck // the node behind it is dead
	}
	h, err := m.c.Register(ctx, clientSpec(in.spec))
	if err != nil {
		return &NodeError{Slot: slot, Node: m.cfg.BaseURL, Err: fmt.Errorf("replay register: %w", err)}
	}
	in.handles[slot] = h
	if !in.co.journal {
		in.lost += uint64(in.acked[slot])
		in.co.lost.Add(uint64(in.acked[slot]))
	}
	in.acked[slot] = 0
	resend := make([][]osp.Element, 0, len(in.journal[slot])+len(in.failed[slot]))
	resend = append(resend, in.journal[slot]...)
	resend = append(resend, in.failed[slot]...)
	in.journal[slot] = nil
	in.failed[slot] = nil
	for k, els := range resend {
		if err := h.IngestFunc(ctx, els, nil); err != nil {
			// The replacement failed mid-replay: retain what it has not
			// acknowledged so a further ReplaceNode can still recover.
			in.failed[slot] = append(in.failed[slot], resend[k:]...)
			m.errs.Add(1)
			return &NodeError{Slot: slot, Node: m.cfg.BaseURL, Err: fmt.Errorf("replay ingest: %w", err)}
		}
		in.co.resent.Add(uint64(len(els)))
		m.batches.Add(1)
		m.elements.Add(uint64(len(els)))
		in.acked[slot] += len(els)
		if in.co.journal {
			in.journal[slot] = append(in.journal[slot], els)
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
		for _, h := range in.handles {
			if err := h.Close(); err != nil && first == nil {
				first = err
			}
		}
		in.mu.Unlock()
	}
	return first
}

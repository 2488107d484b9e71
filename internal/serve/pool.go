package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/setsystem"
)

// Errors reported by the pool.
var (
	// ErrPoolClosed is returned once Shutdown has begun: no new instances
	// and no further ingestion.
	ErrPoolClosed = errors.New("serve: pool is shutting down")
	// ErrPoolFull is returned when registering would exceed MaxInstances.
	ErrPoolFull = errors.New("serve: instance limit reached")
	// ErrUnknownInstance is returned for an id the pool does not hold.
	ErrUnknownInstance = errors.New("serve: unknown instance")
)

// Spec describes one instance registration: the up-front information, the
// shared policy seed, engine sizing plus admission-policy name
// (Engine.Policy, "" = randpr), and an optional metrics label.
type Spec struct {
	Info   core.Info
	Seed   uint64
	Engine engine.Config
	Label  string
}

// Instance is one registered set system and its live engine. The engine's
// Submit/Drain contract is single-goroutine; Instance serializes
// concurrent HTTP handlers onto that contract with a mutex, while verdict
// computation — a pure function of the element and the fixed priority
// vector — stays outside the lock.
type Instance struct {
	id    string
	label string
	seed  uint64
	info  core.Info

	mu  sync.Mutex // serializes Submit/Drain on the engine
	eng *engine.Engine

	// final marks a drain requested by a client (POST .../drain, DELETE)
	// as opposed to the indiscriminate engine drain a graceful shutdown
	// performs on every instance. Snapshots record it so a restore knows
	// whether the instance's stream logically ended (restore as drained,
	// terminal Result intact) or was merely interrupted (restore as
	// streaming, ready for the rest of the stream).
	final atomic.Bool

	// rw fences lane submissions against Drain: every IngestLane submit
	// holds the read side, Drain takes the write side (after mu), so
	// concurrent stream connections ingest in parallel — no shared lock
	// on the hot path — yet can never race the engine's channel close.
	// Lock order is mu before rw; lanes never touch mu.
	rw sync.RWMutex
}

// ID returns the server-assigned instance identifier.
func (in *Instance) ID() string { return in.id }

// Label returns the metrics label supplied at registration ("" if none).
func (in *Instance) Label() string { return in.label }

// Seed returns the shared policy seed.
func (in *Instance) Seed() uint64 { return in.seed }

// Policy returns the resolved admission-policy name of the instance's
// engine ("randpr" for the default).
func (in *Instance) Policy() string { return in.eng.PolicyName() }

// State returns the engine's lifecycle state.
func (in *Instance) State() engine.State { return in.eng.State() }

// Snapshot returns the engine's live metrics counters.
func (in *Instance) Snapshot() engine.Snapshot { return in.eng.Metrics().Snapshot() }

// Shards returns the resolved shard-worker count.
func (in *Instance) Shards() int { return in.eng.NumShards() }

// NumSets returns m, the number of sets in the instance's universe.
func (in *Instance) NumSets() int { return in.info.NumSets() }

// Status assembles the instance's wire status row.
func (in *Instance) Status() InstanceStatus {
	return InstanceStatus{
		ID:      in.id,
		Label:   in.label,
		State:   in.State().String(),
		Seed:    in.seed,
		Policy:  in.Policy(),
		Shards:  in.Shards(),
		Sets:    in.NumSets(),
		Metrics: wireSnapshot(in.Snapshot()),
	}
}

// Validate checks a batch without ingesting anything, returning the index
// and cause of the first invalid element. Ingest batches are atomic:
// handlers validate the whole batch up front so a malformed element
// rejects the batch before any sibling is submitted.
func (in *Instance) Validate(els []setsystem.Element) error {
	m := in.info.NumSets()
	for i, el := range els {
		if err := setsystem.CheckElement(el, m); err != nil {
			return fmt.Errorf("element %d: %w", i, err)
		}
	}
	return nil
}

// Ingest submits a batch the caller has already passed through Validate
// to the engine in order, blocking on engine backpressure when shard
// queues are full. The engine's SubmitValidated path skips the second
// per-member validation scan. It returns engine.ErrDrained if the
// stream was already closed.
func (in *Instance) Ingest(els []setsystem.Element) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, el := range els {
		if err := in.eng.SubmitValidated(el); err != nil {
			return err
		}
	}
	return nil
}

// IngestLane is a per-connection batch submitter: each stream
// connection gets its own lane (engine.Lane semantics — a private
// shard round-robin cursor), so N connections ingesting into one
// instance contend on nothing but the shard queues themselves. The
// instance's RWMutex read side fences every submit against Drain.
type IngestLane struct {
	in   *Instance
	lane *engine.Lane
}

// IngestLane returns a lane whose shard round-robin starts at i mod
// NumShards — hand each connection a distinct index so concurrent
// connections spread across shards from their first batch.
func (in *Instance) IngestLane(i int) *IngestLane {
	return &IngestLane{in: in, lane: in.eng.Lane(i)}
}

// IngestBatch submits one borrowed (or aliased), filled and validated
// engine batch on this lane. Ownership of the batch passes to the
// engine whatever the outcome.
func (l *IngestLane) IngestBatch(b *engine.Batch) error {
	l.in.rw.RLock()
	defer l.in.rw.RUnlock()
	return l.lane.SubmitBatch(b)
}

// MarkFinal records that the instance's stream was closed by a client
// request rather than by shutdown. Called by the drain/remove handlers
// before they Drain.
func (in *Instance) MarkFinal() { in.final.Store(true) }

// Final reports whether the instance was client-drained (see MarkFinal).
func (in *Instance) Final() bool { return in.final.Load() }

// Drain closes the instance's stream and returns the final result,
// bit-for-bit identical to a serial HashRandPr run under the same seed.
// Idempotent. It excludes the mutex-serialized HTTP paths via mu and
// every stream lane via the write side of rw: a lane submit in flight
// completes (shard workers keep consuming until the engine closes
// their queues), then the drain proceeds.
func (in *Instance) Drain() (*core.Result, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rw.Lock()
	defer in.rw.Unlock()
	return in.eng.Drain()
}

// Verdicts computes the immediate admit/drop verdict for every element of
// a batch: the engine's shards will reach — or have reached — exactly the
// same decisions, because every policy's decide rule depends only on the
// element and the frozen per-instance policy state (Section 3.1,
// generalized by the policy contract). The computation is pure and runs
// outside the instance lock, so concurrent verdict requests never contend
// with ingestion.
func (in *Instance) Verdicts(els []setsystem.Element) []Verdict {
	dec := in.eng.Policy()
	verdicts := make([]Verdict, len(els))
	var pos []int32
	for i, el := range els {
		// One walk over the members splits them by Admit's ascending
		// positions: admitted to the front of one allocation, dropped
		// behind them.
		pos = dec.Admit(el.Members, el.Capacity, pos)
		split := make([]setsystem.SetID, len(el.Members))
		a, d := 0, len(pos)
		for j, s := range el.Members {
			if a < len(pos) && int(pos[a]) == j {
				split[a] = s
				a++
			} else {
				split[d] = s
				d++
			}
		}
		verdicts[i] = Verdict{Admitted: split[:len(pos):len(pos)], Dropped: split[len(pos):]}
	}
	return verdicts
}

// Pool owns every registered instance: registration, lookup, removal, and
// the graceful shutdown that drains all live engines. All methods are
// safe for concurrent use.
type Pool struct {
	mu     sync.Mutex
	byID   map[string]*Instance
	nextID int
	max    int
	closed bool

	// Telemetry hooks, set once before serving (SetTelemetry). attachTel
	// builds the telemetry bundle a new engine records into; detachTel
	// flushes and forgets an instance's decision logger when the instance
	// is removed or its registration rolls back.
	attachTel func(id, policy string, shards int) *obs.EngineTelemetry
	detachTel func(id string)
}

// SetTelemetry installs the pool's telemetry hooks: attach is called
// during Register with the new instance's ID, resolved policy name and
// resolved shard count, and its return value becomes the engine's
// Telemetry config; detach is called when an instance is removed (or a
// registration fails after attach). Either may be nil. Must be called
// before the pool serves registrations.
func (p *Pool) SetTelemetry(attach func(id, policy string, shards int) *obs.EngineTelemetry, detach func(id string)) {
	p.attachTel = attach
	p.detachTel = detach
}

// NewPool returns a pool admitting at most max concurrent instances
// (max <= 0 means the default, 1024).
func NewPool(max int) *Pool {
	if max <= 0 {
		max = 1024
	}
	return &Pool{byID: make(map[string]*Instance), max: max}
}

// Register creates an instance with a fresh engine and returns it. The
// engine — whose construction allocates the priority vector, per-shard
// counter arrays and the pre-filled batch free list, and spawns the
// shard goroutines — is built OUTSIDE the pool mutex, so a large
// registration never stalls the Get/Len/Instances calls every other
// handler and the /metrics scrape depend on.
func (p *Pool) Register(spec Spec) (*Instance, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrPoolClosed
	}
	if len(p.byID) >= p.max {
		p.mu.Unlock()
		return nil, fmt.Errorf("%w (max %d)", ErrPoolFull, p.max)
	}
	p.nextID++
	id := "i-" + strconv.Itoa(p.nextID)
	p.mu.Unlock()

	// Resolve the policy here (rather than inside engine.New) so the
	// telemetry attach hook sees the resolved name the engine will report.
	pol, err := core.LookupPolicy(spec.Engine.Policy)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	detach := func() {}
	if p.attachTel != nil {
		spec.Engine.Telemetry = p.attachTel(id, pol.Name(), spec.Engine.Resolved().Shards)
		if p.detachTel != nil {
			detach = func() { p.detachTel(id) }
		}
	}
	eng, err := engine.NewWithPolicy(spec.Info, pol, spec.Seed, spec.Engine)
	if err != nil {
		detach()
		return nil, err
	}
	in := &Instance{
		id:    id,
		label: spec.Label,
		seed:  spec.Seed,
		info:  spec.Info,
		eng:   eng,
	}

	// Re-check under the lock: shutdown or a concurrent registration
	// burst may have won the race while the engine was being built. The
	// fresh engine is drained before rejecting so its shard goroutines
	// never leak.
	p.mu.Lock()
	switch {
	case p.closed:
		p.mu.Unlock()
		eng.Drain() //nolint:errcheck // fresh engine, nothing streamed
		detach()
		return nil, ErrPoolClosed
	case len(p.byID) >= p.max:
		p.mu.Unlock()
		eng.Drain() //nolint:errcheck
		detach()
		return nil, fmt.Errorf("%w (max %d)", ErrPoolFull, p.max)
	}
	p.byID[in.id] = in
	p.mu.Unlock()
	return in, nil
}

// Get returns the instance with the given id.
func (p *Pool) Get(id string) (*Instance, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	in, ok := p.byID[id]
	return in, ok
}

// Remove drains the instance (stopping its shard workers) and deletes it
// from the pool, freeing its memory. Its decision logger — if telemetry
// is attached — is flushed and unregistered, so sampled decisions
// already in the rings still reach the sink.
//
// When the instance holds at least as many sets as every surviving
// instance together, Remove also runs a collection before it returns.
// An instance's memory is its per-set arrays, and once registration
// stopped producing tens of megabytes of garbage, the pacer's next
// cycle could come only after a successor of the same size was built:
// the server then held both. Collecting here costs a mark of the
// survivors, which are no larger than what the removed instance cost
// to build.
func (p *Pool) Remove(id string) error {
	p.mu.Lock()
	in, ok := p.byID[id]
	delete(p.byID, id)
	surviving := 0
	for _, other := range p.byID {
		surviving += other.NumSets()
	}
	p.mu.Unlock()
	if !ok {
		return ErrUnknownInstance
	}
	_, err := in.Drain()
	if p.detachTel != nil {
		p.detachTel(id)
	}
	if in.NumSets() >= surviving {
		runtime.GC()
	}
	return err
}

// Instances returns the live instances sorted by registration order.
func (p *Pool) Instances() []*Instance {
	p.mu.Lock()
	out := make([]*Instance, 0, len(p.byID))
	for _, in := range p.byID {
		out = append(out, in)
	}
	p.mu.Unlock()
	sort.Slice(out, func(a, b int) bool {
		return numericID(out[a].id) < numericID(out[b].id)
	})
	return out
}

// numericID extracts the registration counter from an "i-<n>" id.
func numericID(id string) int {
	n, _ := strconv.Atoi(id[len("i-"):])
	return n
}

// Len returns the number of live instances.
func (p *Pool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.byID)
}

// Closed reports whether Shutdown has begun.
func (p *Pool) Closed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed
}

// Shutdown begins graceful teardown: new registrations and further
// ingestion are refused with ErrPoolClosed, and every live engine is
// drained concurrently — each drain flushes pending batches through the
// shard workers and stops them, so in-flight elements are decided, not
// lost. Shutdown returns once every engine has drained or ctx expires
// (draining continues in the background on expiry). Idempotent.
func (p *Pool) Shutdown(ctx context.Context) error {
	p.mu.Lock()
	p.closed = true
	instances := make([]*Instance, 0, len(p.byID))
	for _, in := range p.byID {
		instances = append(instances, in)
	}
	p.mu.Unlock()

	done := make(chan struct{})
	go func() {
		var wg sync.WaitGroup
		for _, in := range instances {
			wg.Add(1)
			go func(in *Instance) {
				defer wg.Done()
				in.Drain() //nolint:errcheck // drained result is discarded at shutdown
			}(in)
		}
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: shutdown interrupted with engines still draining: %w", ctx.Err())
	}
}

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

// Instance is one registered set system and its live engine. Every
// served batch — a JSON request's or a stream frame's — reaches the
// engine through IngestBatch, and the engine's shards answer its
// verdicts from their one decide.
type Instance struct {
	id    string
	label string
	seed  uint64
	info  core.Info
	eng   *engine.Engine

	// final marks a drain requested by a client (POST .../drain, DELETE)
	// as opposed to the indiscriminate engine drain a graceful shutdown
	// performs on every instance. Snapshots record it so a restore knows
	// whether the instance's stream logically ended (restore as drained,
	// terminal Result intact) or was merely interrupted (restore as
	// streaming, ready for the rest of the stream).
	final atomic.Bool

	// rw fences submitters against Drain and Export: every IngestBatch
	// holds the read side, Drain and Export take the write side, so
	// concurrent requests and stream connections submit in parallel yet
	// can never race the engine's channel close or its quiesce point.
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

// IngestBatch submits one validated batch — borrowed from the engine or
// caller-owned and Aliased — to the engine, blocking on backpressure
// when shard queues are full. Any number of callers may submit at once;
// the read side of rw fences each against Drain. Ownership of the batch
// passes to the engine whatever the outcome; it returns
// engine.ErrDrained once the stream is closed.
func (in *Instance) IngestBatch(b *engine.Batch) error {
	in.rw.RLock()
	defer in.rw.RUnlock()
	return in.eng.SubmitBatch(b)
}

// MarkFinal records that the instance's stream was closed by a client
// request rather than by shutdown. Called by the drain/remove handlers
// before they Drain.
func (in *Instance) MarkFinal() { in.final.Store(true) }

// Final reports whether the instance was client-drained (see MarkFinal).
func (in *Instance) Final() bool { return in.final.Load() }

// Drain closes the instance's stream and returns the final result,
// bit-for-bit identical to a serial HashRandPr run under the same seed.
// Idempotent. It takes the write side of rw: a submit in flight
// completes (shard workers keep consuming until the engine closes
// their queues), then the drain proceeds, and the shards answer every
// submitted batch's Done before it returns.
func (in *Instance) Drain() (*core.Result, error) {
	in.rw.Lock()
	defer in.rw.Unlock()
	return in.eng.Drain()
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
	// opening holds the IDs reserved by opens whose engines are being
	// built. Each counts against max, and no other open may take its ID.
	opening map[string]bool

	// Telemetry hooks, set once before serving (SetTelemetry). attachTel
	// builds the telemetry bundle a new engine records into; detachTel
	// flushes and forgets an instance's decision logger when the instance
	// is removed or its open rolls back.
	attachTel func(id, policy string, shards int) *obs.EngineTelemetry
	detachTel func(id string)
}

// SetTelemetry installs the pool's telemetry hooks: attach is called
// while an instance opens, with its ID, resolved policy name and
// resolved shard count, and its return value becomes the engine's
// Telemetry config; detach is called when an instance is removed (or
// its open fails after attach). Either may be nil. Must be called
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
	return &Pool{byID: make(map[string]*Instance), opening: make(map[string]bool), max: max}
}

// Register creates an instance with a fresh engine under the next free
// ID and returns it.
func (p *Pool) Register(spec Spec) (*Instance, error) { return p.open(spec, 0, nil) }

// open is the one path that adds an instance to the pool, registered
// fresh (n == 0: the next ID, and cp nil) or restored as "i-<n>" from
// checkpoint cp. Under the mutex it reserves the ID and a place under
// the instance limit, so a taken ID or a full pool is refused before
// any engine is built. The engine — whose construction allocates the
// priority vector and per-shard counters and spawns the shard
// goroutines — is built OUTSIDE the mutex, so a large open never
// stalls the Get/Len/Instances calls every other handler and the
// /metrics scrape depend on. The open then commits, or rolls back if
// shutdown began meanwhile.
func (p *Pool) open(spec Spec, n int, cp *engine.Checkpoint) (*Instance, error) {
	// Resolve the policy here too, so the telemetry attach hook sees the
	// resolved name the engine will report.
	pol, err := core.LookupPolicy(spec.Engine.Policy)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	p.mu.Lock()
	var id string
	switch {
	case p.closed:
		err = ErrPoolClosed
	case len(p.byID)+len(p.opening) >= p.max:
		err = fmt.Errorf("%w (max %d)", ErrPoolFull, p.max)
	case n == 0:
		p.nextID++
		id = "i-" + strconv.Itoa(p.nextID)
	default:
		id = "i-" + strconv.Itoa(n)
		if p.byID[id] != nil || p.opening[id] {
			err = fmt.Errorf("serve: restore: instance %s already exists", id)
		}
		// Fresh registrations never take a restored ID.
		p.nextID = max(p.nextID, n)
	}
	if err == nil {
		p.opening[id] = true
	}
	p.mu.Unlock()
	if err != nil {
		return nil, err
	}

	if p.attachTel != nil {
		spec.Engine.Telemetry = p.attachTel(id, pol.Name(), spec.Engine.Resolved().Shards)
	}
	in := &Instance{id: id, label: spec.Label, seed: spec.Seed, info: spec.Info}
	if cp == nil {
		in.eng, err = engine.New(spec.Info, spec.Seed, spec.Engine)
	} else {
		in.eng, err = engine.NewFromCheckpoint(spec.Info, spec.Seed, spec.Engine, cp)
		if err == nil && cp.Final {
			// The stream logically ended before the snapshot: re-derive
			// the terminal Result (the drain merges the baseline counts and
			// sweeps completions deterministically — exact) and restore as
			// drained.
			in.final.Store(true)
			_, err = in.eng.Drain()
		}
	}

	p.mu.Lock()
	delete(p.opening, id)
	if err == nil && p.closed {
		// Shutdown began while the engine was being built, and it drains
		// only the instances it found.
		err = ErrPoolClosed
	}
	if err == nil {
		p.byID[id] = in
	}
	p.mu.Unlock()
	if err != nil {
		if in.eng != nil {
			in.eng.Drain() //nolint:errcheck // stops the shard goroutines; nothing streamed since open
		}
		if p.attachTel != nil && p.detachTel != nil {
			p.detachTel(id)
		}
		return nil, err
	}
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

package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Health-driven automatic failover: a Monitor probes every slot's node
// — GET /healthz plus, when the node advertises one, a TCP liveness
// check of its stream listener — and walks each slot through a
// three-state machine:
//
//	healthy --probe failure--> suspect --FailThreshold consecutive
//	failures--> dead --ReplaceNode(spare) succeeded--> healthy
//
// Suspect and dead slots are re-probed under jittered exponential
// backoff (a struggling node is not hammered back to death); any
// successful probe snaps the slot straight back to healthy. When a slot
// goes dead and a spare is left, the monitor takes the next spare
// from the pool and invokes the coordinator's existing ReplaceNode
// replay against it — each hosted instance re-registered from its Spec,
// then the retained element shares — with no operator in the loop.
// Everything the manual path guarantees carries over: with the journal
// on the merged drain stays bit-for-bit equal to the serial oracle;
// without it the dead node's acknowledged elements are counted in
// Instance.Lost, never silently dropped.

// NodeState is one slot's health, encoded so the Prometheus gauge reads
// naturally: 2 healthy, 1 suspect, 0 dead.
type NodeState int32

const (
	// NodeDead means FailThreshold consecutive probes failed; the slot
	// is eligible for automatic failover.
	NodeDead NodeState = 0
	// NodeSuspect means at least one probe failed but the slot has not
	// reached the death threshold.
	NodeSuspect NodeState = 1
	// NodeHealthy means the last probe succeeded.
	NodeHealthy NodeState = 2
)

// String implements fmt.Stringer for events and logs.
func (s NodeState) String() string {
	switch s {
	case NodeHealthy:
		return "healthy"
	case NodeSuspect:
		return "suspect"
	case NodeDead:
		return "dead"
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

// HealthEvent reports one slot transition (and failover outcomes) to
// the OnEvent hook.
type HealthEvent struct {
	// Slot is the affected fleet slot.
	Slot int
	// Node is the slot's occupant at event time (the replacement, for a
	// completed failover).
	Node string
	// From and To are the transition's endpoints.
	From, To NodeState
	// Err carries the probe or failover error, nil on recovery.
	Err error
	// Failover marks events emitted by the automatic ReplaceNode (To is
	// the slot's state after the attempt).
	Failover bool
}

// HealthConfig configures a Monitor.
type HealthConfig struct {
	// Interval is the probe period for healthy nodes. 0 means 1s.
	Interval time.Duration
	// Timeout bounds each probe. 0 means half the interval.
	Timeout time.Duration
	// FailThreshold is the consecutive-failure count that declares a
	// node dead. 0 means 3.
	FailThreshold int
	// Spares is the replacement pool, consumed front to back by
	// automatic failovers. With none left the monitor only observes
	// (states, metrics, events).
	Spares []Node
	// FailoverBudget bounds one automatic ReplaceNode replay, and is
	// also how long a riding-through Ingest waits for its share to be
	// rehomed. 0 means 30s.
	FailoverBudget time.Duration
	// OnEvent, when set, receives every state transition and failover
	// outcome. Called from monitor goroutines; keep it fast.
	OnEvent func(HealthEvent)
}

func (c *HealthConfig) interval() time.Duration {
	if c.Interval <= 0 {
		return time.Second
	}
	return c.Interval
}

func (c *HealthConfig) timeout() time.Duration {
	if c.Timeout <= 0 {
		return c.interval() / 2
	}
	return c.Timeout
}

func (c *HealthConfig) failThreshold() int {
	if c.FailThreshold <= 0 {
		return 3
	}
	return c.FailThreshold
}

// maxBackoff caps the jittered exponential re-probe backoff for
// suspect and dead nodes.
func (c *HealthConfig) maxBackoff() time.Duration { return 8 * c.interval() }

func (c *HealthConfig) failoverBudget() time.Duration {
	if c.FailoverBudget <= 0 {
		return 30 * time.Second
	}
	return c.FailoverBudget
}

// slotHealth is one slot's monitor state (guarded by Monitor.mu).
type slotHealth struct {
	state     NodeState
	fails     int           // consecutive probe failures
	backoff   time.Duration // current re-probe backoff (suspect/dead)
	nextProbe time.Time
	replacing bool // an automatic failover is in flight
}

// Monitor probes the fleet and drives automatic failover. Create with
// Coordinator.StartHealth; stop with Stop.
type Monitor struct {
	co  *Coordinator
	cfg HealthConfig

	mu     sync.Mutex
	slots  []slotHealth
	spares []Node

	autoFailovers  atomic.Uint64 // automatic ReplaceNode attempts that succeeded
	failedAttempts atomic.Uint64 // automatic ReplaceNode attempts that errored
	probeFails     atomic.Uint64 // probes that failed

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// StartHealth attaches a health monitor to the coordinator and begins
// probing. One monitor per coordinator: a second call stops the first.
func (co *Coordinator) StartHealth(cfg HealthConfig) *Monitor {
	m := &Monitor{
		co:     co,
		cfg:    cfg,
		slots:  make([]slotHealth, co.ring.Slots()),
		spares: append([]Node(nil), cfg.Spares...),
		stop:   make(chan struct{}),
	}
	for i := range m.slots {
		m.slots[i].state = NodeHealthy // innocent until probed
	}
	co.mu.Lock()
	prev := co.health
	co.health = m
	co.mu.Unlock()
	if prev != nil {
		prev.Stop()
	}
	m.wg.Add(1)
	go m.loop()
	return m
}

// healthMonitor returns the attached monitor, nil when none.
func (co *Coordinator) healthMonitor() *Monitor {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.health
}

// Stop ends probing. In-flight failovers run to completion.
func (m *Monitor) Stop() {
	m.stopOnce.Do(func() { close(m.stop) })
	m.wg.Wait()
}

// States returns every slot's current health, slot-indexed.
func (m *Monitor) States() []NodeState {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]NodeState, len(m.slots))
	for i := range m.slots {
		out[i] = m.slots[i].state
	}
	return out
}

// SpareCount returns the number of unconsumed spares.
func (m *Monitor) SpareCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.spares)
}

// AutoFailovers returns the number of automatic ReplaceNode replays
// that completed.
func (m *Monitor) AutoFailovers() uint64 { return m.autoFailovers.Load() }

// loop is the probe scheduler: each tick, every slot whose backoff
// clock has expired is probed concurrently.
func (m *Monitor) loop() {
	defer m.wg.Done()
	tick := m.cfg.interval() / 4
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for {
		select {
		case <-m.stop:
			return
		case now := <-ticker.C:
			var due []int
			m.mu.Lock()
			for i := range m.slots {
				if !m.slots[i].nextProbe.After(now) && !m.slots[i].replacing {
					due = append(due, i)
					// Claim the slot until this probe round settles it.
					m.slots[i].nextProbe = now.Add(m.cfg.maxBackoff())
				}
			}
			m.mu.Unlock()
			var wg sync.WaitGroup
			for _, slot := range due {
				wg.Add(1)
				go func(slot int) {
					defer wg.Done()
					m.probe(slot)
				}(slot)
			}
			wg.Wait()
		}
	}
}

// probe checks one slot and advances its state machine.
func (m *Monitor) probe(slot int) {
	mem := m.co.memberAt(slot)
	err := probeNode(mem, m.cfg.timeout())
	if err != nil {
		m.probeFails.Add(1)
	}

	m.mu.Lock()
	sh := &m.slots[slot]
	from := sh.state
	if err == nil {
		sh.state = NodeHealthy
		sh.fails = 0
		sh.backoff = 0
		sh.nextProbe = time.Now().Add(m.cfg.interval())
	} else {
		sh.fails++
		if sh.fails >= m.cfg.failThreshold() {
			sh.state = NodeDead
		} else {
			sh.state = NodeSuspect
		}
		// Jittered exponential backoff on re-probe: [b/2, b], doubling.
		if sh.backoff == 0 {
			sh.backoff = m.cfg.interval()
		} else if sh.backoff *= 2; sh.backoff > m.cfg.maxBackoff() {
			sh.backoff = m.cfg.maxBackoff()
		}
		wait := sh.backoff/2 + time.Duration(rand.Int63n(int64(sh.backoff/2)+1))
		sh.nextProbe = time.Now().Add(wait)
	}
	to := sh.state
	startFailover := to == NodeDead && !sh.replacing && len(m.spares) > 0
	var spare Node
	if startFailover {
		spare = m.spares[0]
		m.spares = m.spares[1:]
		sh.replacing = true
	}
	m.mu.Unlock()

	if from != to {
		m.emit(HealthEvent{Slot: slot, Node: mem.cfg.BaseURL, From: from, To: to, Err: err})
	}
	if startFailover {
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			m.failover(slot, spare)
		}()
	}
}

// probeNode is one health check: GET /healthz, plus a TCP dial of the
// stream listener when the node advertises one — a node whose HTTP
// plane answers but whose stream plane is gone is not healthy.
func probeNode(mem *member, timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	if err := mem.c.Health(ctx); err != nil {
		return err
	}
	if addr := mem.cfg.StreamAddr; addr != "" {
		nc, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			return fmt.Errorf("stream liveness %s: %w", addr, err)
		}
		nc.Close() //nolint:errcheck // liveness only
	}
	return nil
}

// failover runs one automatic ReplaceNode replay against a spare.
func (m *Monitor) failover(slot int, spare Node) {
	ctx, cancel := context.WithTimeout(context.Background(), m.cfg.failoverBudget())
	defer cancel()
	err := m.co.ReplaceNode(ctx, slot, spare)

	m.mu.Lock()
	sh := &m.slots[slot]
	sh.replacing = false
	from := sh.state
	if err == nil {
		m.autoFailovers.Add(1)
		sh.state = NodeHealthy
		sh.fails = 0
		sh.backoff = 0
		sh.nextProbe = time.Now().Add(m.cfg.interval())
	} else {
		m.failedAttempts.Add(1)
		// The slot now holds the spare with a partial replay; probe it
		// soon — retained shares survive for a further ReplaceNode.
		sh.state = NodeSuspect
		sh.fails = 0
		sh.nextProbe = time.Now().Add(m.cfg.interval())
	}
	to := sh.state
	m.mu.Unlock()
	m.emit(HealthEvent{Slot: slot, Node: spare.BaseURL, From: from, To: to, Err: err, Failover: true})
}

// emit delivers one event to the hook, if any.
func (m *Monitor) emit(ev HealthEvent) {
	if m.cfg.OnEvent != nil {
		m.cfg.OnEvent(ev)
	}
}

// rideThrough blocks until the retained shares of a failed ingest have
// been resent by an automatic failover's replay, or the budget runs
// out. It reports whether the batch landed.
func (in *Instance) rideThrough(ctx context.Context, budget time.Duration) bool {
	deadline := time.Now().Add(budget)
	for {
		select {
		case <-ctx.Done():
			return false
		case <-time.After(10 * time.Millisecond):
		}
		in.mu.Lock()
		landed := in.drained == nil
		for k := range in.hosts {
			if len(in.hosts[k].failed) > 0 {
				landed = false
				break
			}
		}
		in.mu.Unlock()
		if landed {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
	}
}

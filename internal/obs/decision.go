package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Decision is one sampled admission decision, the unit the decision log
// ships to sinks and serves from the tail endpoint. The verdict is a
// bitmask over the element's parent sets in ascending SetID order — the
// canonical arrival order every codec already enforces — so bit i set
// means the i-th announced membership was admitted. Elements with more
// than 64 memberships record the first 64 bits (Members still reports
// the true width).
type Decision struct {
	// Instance is the server-assigned instance ID ("i-3") or the replay
	// tag a CLI chose.
	Instance string `json:"instance"`
	// Policy is the resolved admission-policy name that decided.
	Policy string `json:"policy"`
	// Element is the global arrival index of the element in its stream.
	Element uint64 `json:"element"`
	// Shard is the engine shard that decided the element.
	Shard int32 `json:"shard"`
	// Members is the element's membership count (the verdict mask width).
	Members int32 `json:"members"`
	// Admitted is the number of memberships admitted (<= capacity).
	Admitted int32 `json:"admitted"`
	// Verdict is the admit bitmask over the members in ascending SetID
	// order.
	Verdict uint64 `json:"verdict"`
	// TimeUnixNano is the decision wall-clock time.
	TimeUnixNano int64 `json:"time_unix_nano"`
}

// Record is the compact per-shard ring slot: everything in Decision that
// varies per element. Instance and policy are constants of the logger
// and get attached at flush, off the hot path.
type Record struct {
	Element      uint64
	Verdict      uint64
	TimeUnixNano int64
	Members      int32
	Admitted     int32
}

// ShardLog is one shard's sampling state and bounded record ring. It is
// strictly single-producer: exactly one shard goroutine calls Sample and
// Record, while the DecisionLog drainer consumes concurrently. The
// write index is published with an atomic store after the slot is
// filled; the drainer never reads an unpublished slot.
type ShardLog struct {
	every     uint32 // sample every Nth decision
	countdown uint32 // shard-local, no atomics: only the shard touches it
	slots     []Record
	mask      uint64
	widx      atomic.Uint64 // next write position, published by the shard
	ridx      atomic.Uint64 // next read position, owned by the drainer
	dropped   atomic.Uint64 // records lost to a full ring
}

// Sample reports whether the current decision should be recorded — a
// decrement and a branch, the entire per-element cost of a disabled
// sample. Deterministic every-Nth sampling keeps the log's element
// indices evenly spaced for replay.
func (s *ShardLog) Sample() bool {
	s.countdown--
	if s.countdown != 0 {
		return false
	}
	s.countdown = s.every
	return true
}

// Record appends one sampled decision to the ring, dropping it (and
// counting the drop) when the drainer has fallen a full ring behind.
// Never blocks, never allocates.
func (s *ShardLog) Record(r Record) {
	w := s.widx.Load()
	if w-s.ridx.Load() >= uint64(len(s.slots)) {
		s.dropped.Add(1)
		return
	}
	s.slots[w&s.mask] = r
	s.widx.Store(w + 1)
}

// DecisionLogger binds one engine (one instance) to the decision log:
// per-shard rings plus the instance's bounded tail of recent flushed
// decisions.
type DecisionLogger struct {
	log      *DecisionLog
	instance string
	policy   string
	shards   []*ShardLog

	mu       sync.Mutex // guards the tail ring
	tail     []Decision // preallocated; written round-robin at flush
	tailNext uint64     // total decisions ever appended to the tail
}

// Shard returns shard i's sampling handle, nil on a nil logger or an
// out-of-range index — so an engine built without telemetry, or with
// more shards than the logger was opened for, simply skips sampling.
func (l *DecisionLogger) Shard(i int) *ShardLog {
	if l == nil || i < 0 || i >= len(l.shards) {
		return nil
	}
	return l.shards[i]
}

// append adds one flushed decision to the bounded tail. Called by the
// drainer with the record already widened to a Decision.
func (l *DecisionLogger) append(d Decision) {
	l.mu.Lock()
	l.tail[l.tailNext%uint64(len(l.tail))] = d
	l.tailNext++
	l.mu.Unlock()
}

// Tail copies the most recent flushed decisions, newest last, at most
// max (max <= 0 means the full retained tail).
func (l *DecisionLogger) Tail(max int) []Decision {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := l.tailNext
	retained := uint64(len(l.tail))
	if n > retained {
		n = retained
	}
	if max > 0 && uint64(max) < n {
		n = uint64(max)
	}
	out := make([]Decision, 0, n)
	for i := l.tailNext - n; i < l.tailNext; i++ {
		out = append(out, l.tail[i%retained])
	}
	return out
}

// dropped sums the records lost to full rings across shards.
func (l *DecisionLogger) droppedTotal() uint64 {
	var total uint64
	for _, s := range l.shards {
		total += s.dropped.Load()
	}
	return total
}

// DecisionLogConfig sizes the decision log. The zero value is usable:
// sample every 1024th decision into 1024-slot rings, retain a 512-entry
// tail per instance, flush every 25 ms, no external sink.
type DecisionLogConfig struct {
	// SampleEvery records every Nth decision per shard; <= 1 records all
	// of them. The countdown is shard-local, so the effective process
	// rate is 1/N regardless of shard count.
	SampleEvery int
	// RingSize is the per-shard ring capacity in records, rounded up to
	// a power of two; 0 means 1024. A full ring drops (and counts)
	// records rather than blocking the shard.
	RingSize int
	// Tail is the per-instance count of recent decisions retained for
	// GET /v1/instances/{id}/decisions; 0 means 512.
	Tail int
	// FlushEvery is the drainer period; 0 means 25 ms.
	FlushEvery time.Duration
	// Sink additionally receives every flushed decision (nil: tail
	// only). Sink writes happen on the drainer goroutine, never on a
	// shard.
	Sink Sink
}

// withDefaults resolves zero fields.
func (c DecisionLogConfig) withDefaults() DecisionLogConfig {
	if c.SampleEvery < 1 {
		c.SampleEvery = 1024
	}
	if c.RingSize <= 0 {
		c.RingSize = 1024
	}
	// Round the ring up to a power of two for mask indexing.
	rs := 1
	for rs < c.RingSize {
		rs <<= 1
	}
	c.RingSize = rs
	if c.Tail <= 0 {
		c.Tail = 512
	}
	if c.FlushEvery <= 0 {
		c.FlushEvery = 25 * time.Millisecond
	}
	return c
}

// DecisionLog is the process-wide sampled decision log: it owns the
// drainer goroutine that asynchronously flushes every registered
// logger's shard rings into the per-instance tails and the optional
// sink. Create with NewDecisionLog, attach engines with Logger, and
// Close to flush the remainder and stop the drainer.
type DecisionLog struct {
	cfg DecisionLogConfig

	mu      sync.Mutex
	loggers map[string]*DecisionLogger
	order   []*DecisionLogger

	flushed atomic.Uint64 // decisions drained from rings (tail + sink)

	done chan struct{}
	wg   sync.WaitGroup

	// flushMu serializes flush passes: the rings are single-consumer, so
	// the periodic drainer, Remove and Close must not drain concurrently.
	// Guarded by it, flushSnap and sinkBuf are reusable scratch that
	// reaches its high-water mark once — a steady-state flush with no
	// sink allocates nothing, which is what keeps the engine's
	// telemetry-enabled alloc gate at exactly zero.
	flushMu   sync.Mutex
	flushSnap []*DecisionLogger
	sinkBuf   []Decision
}

// NewDecisionLog builds the log and starts its drainer.
func NewDecisionLog(cfg DecisionLogConfig) *DecisionLog {
	d := &DecisionLog{
		cfg:     cfg.withDefaults(),
		loggers: make(map[string]*DecisionLogger),
		done:    make(chan struct{}),
	}
	d.wg.Add(1)
	go d.run()
	return d
}

// SampleEvery reports the resolved sampling period.
func (d *DecisionLog) SampleEvery() int { return d.cfg.SampleEvery }

// Logger registers one instance with the log and returns its handle,
// with one preallocated ring per engine shard. Registering an instance
// ID twice replaces the previous logger (the old tail is dropped).
func (d *DecisionLog) Logger(instance, policy string, shards int) *DecisionLogger {
	if shards < 1 {
		shards = 1
	}
	l := &DecisionLogger{
		log:      d,
		instance: instance,
		policy:   policy,
		shards:   make([]*ShardLog, shards),
		tail:     make([]Decision, d.cfg.Tail),
	}
	for i := range l.shards {
		l.shards[i] = &ShardLog{
			every:     uint32(d.cfg.SampleEvery),
			countdown: uint32(d.cfg.SampleEvery),
			slots:     make([]Record, d.cfg.RingSize),
			mask:      uint64(d.cfg.RingSize - 1),
		}
	}
	d.mu.Lock()
	if _, ok := d.loggers[instance]; ok {
		// Replace in order too, keeping iteration stable.
		for i, old := range d.order {
			if old.instance == instance {
				d.order[i] = l
				break
			}
		}
	} else {
		d.order = append(d.order, l)
	}
	d.loggers[instance] = l
	d.mu.Unlock()
	return l
}

// Remove flushes and unregisters an instance's logger; its tail is no
// longer served. No-op for unknown instances.
func (d *DecisionLog) Remove(instance string) {
	d.mu.Lock()
	l, ok := d.loggers[instance]
	if ok {
		delete(d.loggers, instance)
		for i, o := range d.order {
			if o == l {
				d.order = append(d.order[:i], d.order[i+1:]...)
				break
			}
		}
	}
	d.mu.Unlock()
	if ok {
		d.flushMu.Lock()
		d.flushLogger(l)
		d.flushMu.Unlock()
	}
}

// Tail returns the most recent flushed decisions of one instance,
// newest last. ok is false when the instance has no registered logger.
func (d *DecisionLog) Tail(instance string, max int) (recs []Decision, ok bool) {
	d.mu.Lock()
	l, ok := d.loggers[instance]
	d.mu.Unlock()
	if !ok {
		return nil, false
	}
	return l.Tail(max), true
}

// Stats reports lifetime totals: decisions flushed (to tail and sink)
// and decisions dropped on full rings. Records still sitting in rings
// appear in neither until the next flush.
func (d *DecisionLog) Stats() (flushed, dropped uint64) {
	d.mu.Lock()
	loggers := append([]*DecisionLogger(nil), d.order...)
	d.mu.Unlock()
	for _, l := range loggers {
		dropped += l.droppedTotal()
	}
	return d.flushed.Load(), dropped
}

// Flush drains every ring synchronously — what Close and tests use to
// see all published records without waiting a drainer period.
func (d *DecisionLog) Flush() {
	d.flushMu.Lock()
	defer d.flushMu.Unlock()
	d.mu.Lock()
	d.flushSnap = append(d.flushSnap[:0], d.order...)
	d.mu.Unlock()
	for _, l := range d.flushSnap {
		d.flushLogger(l)
	}
}

// flushLogger drains one logger's rings into its tail and the sink
// batch. Caller holds flushMu. With no sink configured this path
// performs zero allocations: tail slots are preallocated and the
// instance/policy strings are shared, so steady-state telemetry never
// pressures the GC.
func (d *DecisionLog) flushLogger(l *DecisionLogger) {
	sink := d.cfg.Sink
	if sink != nil {
		d.sinkBuf = d.sinkBuf[:0]
	}
	var n int
	for i, s := range l.shards {
		r, w := s.ridx.Load(), s.widx.Load()
		n += int(w - r)
		for ; r < w; r++ {
			rec := s.slots[r&s.mask]
			dec := Decision{
				Instance:     l.instance,
				Policy:       l.policy,
				Element:      rec.Element,
				Shard:        int32(i),
				Members:      rec.Members,
				Admitted:     rec.Admitted,
				Verdict:      rec.Verdict,
				TimeUnixNano: rec.TimeUnixNano,
			}
			l.append(dec)
			if sink != nil {
				d.sinkBuf = append(d.sinkBuf, dec)
			}
		}
		s.ridx.Store(w)
	}
	if n > 0 {
		d.flushed.Add(uint64(n))
	}
	if sink != nil && len(d.sinkBuf) > 0 {
		sink.WriteDecisions(d.sinkBuf)
	}
}

// run is the drainer loop: flush every period until Close.
func (d *DecisionLog) run() {
	defer d.wg.Done()
	t := time.NewTicker(d.cfg.FlushEvery)
	defer t.Stop()
	for {
		select {
		case <-d.done:
			return
		case <-t.C:
			d.Flush()
		}
	}
}

// Close stops the drainer, flushes every remaining record and closes
// the sink if it implements io.Closer. Idempotent-unsafe: call once.
func (d *DecisionLog) Close() error {
	close(d.done)
	d.wg.Wait()
	d.Flush()
	if c, ok := d.cfg.Sink.(interface{ Close() error }); ok {
		return c.Close()
	}
	return nil
}

// EngineTelemetry is the bundle of instruments an engine records into
// (engine.Config.Telemetry). Any field may be nil to disable that
// instrument; the engine's hot path pays one branch per element for a
// disabled decision log and nothing at all per element for histograms
// (both are observed once per batch part — a batch the engine splits
// across shards is one part per shard).
type EngineTelemetry struct {
	// Decisions samples admission decisions into the decision log.
	Decisions *DecisionLogger
	// QueueWait observes dispatch→shard-dequeue wait, once per batch part.
	QueueWait *Histogram
	// Decide observes a shard's decide time of one batch part.
	Decide *Histogram
}

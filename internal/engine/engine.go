// Package engine is the sharded concurrent streaming admission engine: it
// serves a live element stream through a pluggable admission policy —
// the paper's distributed randPr by default — at multi-core throughput.
//
// The design exploits the observation behind Section 3.1, generalized by
// the policy contract (core.Policy, DESIGN.md §11): a policy's decision
// for an element depends only on the element itself and on frozen
// per-instance state built deterministically from (Info, seed) — never on
// the run state. Shards therefore need no locks, no shared mutable state
// and no coordination on the hot path:
//
//   - New resolves the configured policy name (core.LookupPolicy) and runs
//     its Setup once — for the default randPr policy that keys the
//     priorities core.HashPriorities computes, as HashRandPr does —
//     handing every shard a read-only view of the resulting state.
//   - Submit copies arriving elements into a flat structure-of-arrays
//     batch — one shared member buffer plus per-element offset/capacity
//     arrays — and SubmitBatch takes one filled by the caller, from any
//     number of goroutines at once. One dispatcher hands every batch to
//     the shard workers over bounded channels: a batch of n elements
//     travels as min(shards, n/minPart) contiguous parts of about equal
//     member counts, each to the next shard of one shared atomic
//     round-robin cursor, so one large batch keeps every shard busy; a
//     full queue blocks the submitter, giving natural backpressure.
//     Batches are recycled through a free list, so steady-state ingestion
//     allocates nothing.
//   - Each shard decides its part's elements with the policy state's
//     Admit, reading the batch buffer in place, and accumulates per-set
//     assignment counts in a shard-local byte array, carrying every
//     wrap into one engine-wide array; the shard that finishes a
//     batch's last part recycles it and, when the batch carries a Done
//     callback, answers the verdicts its decide set. That decide is the
//     only one a served element gets.
//   - Drain flushes, stops the workers and merges the shard counters into
//     a Result that is bit-for-bit identical to a serial core.Run with
//     the policy's oracle (core.PolicyAlgorithm — HashRandPr for the
//     default policy) under the same seed: integer assignment counts
//     commute across shards, and the completion sweep re-walks sets in
//     ascending order exactly as the serial runner does.
//
// Live progress is observable through Metrics while the stream is open.
// All metric publication is amortized to one atomic update per batch or
// part: the submit side publishes submitted counts at dispatch, the
// shard side publishes processed/assigned/dropped after deciding a part
// and counts the batch when its last part is done.
package engine

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/setsystem"
	"repro/internal/wire"
)

// State is an engine's lifecycle position. An engine is born StateIdle,
// moves to StateStreaming on its first submission and reaches
// StateDrained — terminal — when Drain closes the stream. State
// transitions happen on submitter goroutines; State may be read
// concurrently from any goroutine (the service layer polls it for pool
// listings and metrics labels).
type State int32

// Engine lifecycle states, in order.
const (
	// StateIdle: created, no element submitted yet.
	StateIdle State = iota
	// StateStreaming: at least one element submitted, not yet drained.
	StateStreaming
	// StateDrained: Drain has run; the Result is final and Submit fails
	// with ErrDrained.
	StateDrained
)

// String returns the lowercase state name used in API responses and
// metrics labels.
func (s State) String() string {
	switch s {
	case StateIdle:
		return "idle"
	case StateStreaming:
		return "streaming"
	case StateDrained:
		return "drained"
	default:
		return fmt.Sprintf("state(%d)", int32(s))
	}
}

// Config sizes the engine and names its admission policy. The zero value
// is usable: one shard per CPU, 64-element batches, 8 queued batch parts
// per shard, the randpr policy.
type Config struct {
	// Shards is the number of worker goroutines; 0 means GOMAXPROCS.
	Shards int
	// BatchSize is the number of elements Submit gathers into one batch;
	// 0 means 64. SubmitBatch takes the caller's batches as they are.
	BatchSize int
	// QueueDepth is the number of batch parts each shard buffers before
	// Submit blocks (backpressure); 0 means 8.
	QueueDepth int
	// Policy names the admission policy, resolved through
	// core.LookupPolicy; "" means core.DefaultPolicy (randpr). Every
	// registered policy produces results reproducible across shard counts
	// under a fixed seed.
	Policy string
	// Telemetry attaches optional observability to the shard loops:
	// sampled decision logging and queue-wait/decide histograms
	// (internal/obs). Nil disables every probe. With telemetry attached
	// the hot path stays at zero allocations per element — sampling is a
	// shard-local countdown and the ring slots are preallocated (DESIGN.md
	// §13) — so enabling it in production is safe by construction.
	Telemetry *obs.EngineTelemetry
}

// Resolved returns the config with zero fields resolved to the defaults
// New would apply — what admission-control layers need to bound the
// resources a configuration will actually allocate (shard count × set
// count counter cells, shard count × queue depth pre-filled batches)
// before building the engine.
func (c Config) Resolved() Config { return c.withDefaults() }

// withDefaults resolves zero fields to their defaults.
func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 64
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 8
	}
	return c
}

// ErrDrained is returned by submissions once the stream is drained.
// Invalid elements are rejected with the setsystem validation errors
// (setsystem.ErrBadCapacity, setsystem.ErrMemberRange, …); unknown
// policy names are rejected with core.ErrUnknownPolicy wrapped.
var ErrDrained = errors.New("engine: stream already drained")

// Batch is one ingestion unit in flat structure-of-arrays layout: the
// member lists of all batched elements concatenated into one buffer, plus
// parallel per-element offset and capacity arrays. Element i's parents are
// Members[Offs[i]:Offs[i+1]] and its b(u) is Caps[i]. The layout keeps the
// shard's decide loop walking contiguous memory, and ingestion does one
// bulk copy per element instead of retaining the caller's slice.
//
// The fields are exported for the zero-copy wire path: BorrowBatch hands
// out a recycled Batch, wire decoding appends straight into its buffers
// (internal/wire.DecodeBatch produces exactly this shape), and
// SubmitBatch hands it to the shards in place — no intermediate element
// structs, no second copy. A large batch is decided as several
// contiguous parts on different shards at once; the elements never move.
type Batch struct {
	Members []setsystem.SetID
	Offs    []int32 // len = n+1; Offs[0] == 0
	Caps    []int32 // len = n

	// Seq, Masks and Done form the callback-verdict contract both served
	// ingest arms use. When Done is non-nil, the engine extends Masks
	// by the batch's verdict bytes (wire.MaskLen of each element's load,
	// zeroed) and every deciding shard sets, in its part's byte range,
	// the bit of each admitted member's position, so the bytes equal one
	// wire.AppendVerdictMask per element in batch order. After the
	// batch's last part is decided and counted, Done(Seq, Masks) runs
	// once, on the goroutine of the shard that finished it. This is what
	// lets every served arm answer verdicts from the engine's one decide.
	// The callback must not block (shards serve every submitter); hand
	// the masks to a buffered channel. Ownership of the Masks buffer
	// passes back to the caller at the callback; the batch itself is
	// recycled before Done runs and must not be touched.
	Seq   uint32
	Masks []byte
	Done  func(seq uint32, masks []byte)

	// Aliased marks a caller-owned batch: its struct and its Members,
	// Offs and Caps storage belong to the submitter — a stream
	// connection's read buffer (the zero-copy wire path) or a request's
	// own batch — not to the engine's free list. The engine only reads a
	// batch's elements, and treats aliased batches as pass-through: Reset
	// detaches the slices entirely rather than truncating them (a
	// truncated alias would leak foreign memory into the free list), and
	// the shard hands the struct back to its owner by simply not
	// free-listing it. Aliased batches must be submitted through
	// SubmitBatch, never built by Submit.
	Aliased bool

	// base is the global arrival index of the batch's first element —
	// the submitted counter before this batch — giving every sampled
	// decision a stable element index without per-element bookkeeping.
	base uint64
	// enq is the dispatch time, read by the shards to observe queue wait.
	// Only stamped when telemetry is attached.
	enq time.Time
	// pending counts the batch's parts not yet decided; the shard that
	// takes it to zero counts, recycles and answers the batch.
	pending atomic.Int32
}

// minPart is the fewest elements the dispatcher puts in one part: a batch
// is split across shards only where every part keeps at least this many,
// since each part pays a channel handoff, a goroutine wake-up and the
// shared countdown. DESIGN.md §4 records BenchmarkSubmitBatchFrame around
// this value and why it is not smaller.
const minPart = 1024

// part is one shard's share of a batch: elements [lo, hi), whose verdict
// masks (when the batch has Done) start at byte maskOff of b.Masks.
type part struct {
	b       *Batch
	lo, hi  int
	maskOff int
}

// add bulk-copies one element into the batch.
func (b *Batch) add(el setsystem.Element) {
	if len(b.Offs) == 0 {
		b.Offs = append(b.Offs, 0)
	}
	b.Members = append(b.Members, el.Members...)
	b.Offs = append(b.Offs, int32(len(b.Members)))
	b.Caps = append(b.Caps, int32(el.Capacity))
}

// Len returns the number of batched elements.
func (b *Batch) Len() int { return len(b.Caps) }

// Reset empties the batch, keeping its storage. The callback-verdict
// fields are detached, not kept: a recycled batch must never fire a
// stale Done or append onto a previous connection's mask buffer. An
// aliased batch's element slices are dropped outright — truncating
// them would retain views of transport-owned buffers past their
// lifetime.
func (b *Batch) Reset() {
	if b.Aliased {
		b.Members, b.Offs, b.Caps = nil, nil, nil
		b.Aliased = false
	} else {
		b.Members = b.Members[:0]
		b.Offs = b.Offs[:0]
		b.Caps = b.Caps[:0]
	}
	b.Seq, b.Masks, b.Done = 0, nil, nil
}

// Validate checks every batched element against a universe of numSets
// sets — the flat-layout mirror of setsystem.CheckElement, wrapping the
// same error values. Batch-ingestion layers call it once after filling a
// borrowed batch from the wire; SubmitBatch then trusts the contents.
func (b *Batch) Validate(numSets int) error {
	n := b.Len()
	if len(b.Offs) != n+1 || b.Offs[0] != 0 || int(b.Offs[n]) != len(b.Members) {
		return fmt.Errorf("engine: malformed batch: %d caps, %d offs over %d members", n, len(b.Offs), len(b.Members))
	}
	for i := 0; i < n; i++ {
		if b.Caps[i] < 1 {
			return fmt.Errorf("element %d: %w: capacity %d", i, setsystem.ErrBadCapacity, b.Caps[i])
		}
		lo, hi := b.Offs[i], b.Offs[i+1]
		if hi < lo {
			return fmt.Errorf("engine: malformed batch: element %d spans [%d, %d)", i, lo, hi)
		}
		if hi == lo {
			return fmt.Errorf("element %d: %w", i, setsystem.ErrEmptyElement)
		}
		prev := setsystem.SetID(-1)
		for _, s := range b.Members[lo:hi] {
			if s < 0 || s >= setsystem.SetID(numSets) {
				return fmt.Errorf("element %d: %w: set %d (m=%d)", i, setsystem.ErrMemberRange, s, numSets)
			}
			if s <= prev {
				return fmt.Errorf("element %d: %w: set %d after %d", i, setsystem.ErrBadMemberOrder, s, prev)
			}
			prev = s
		}
	}
	return nil
}

// Engine streams elements through sharded policy admission. Submit and
// Drain must be called from a single goroutine (the arrival stream is a
// sequence, as in the OSP protocol); SubmitBatch may be called from
// several goroutines at once, fenced against Drain by the caller. The
// shard workers run concurrently underneath.
type Engine struct {
	cfg     Config
	info    core.Info
	policy  string               // resolved policy name
	decider core.PolicyState     // read-only after New; shared by all shards
	tel     *obs.EngineTelemetry // nil: no telemetry probes
	shards  []*shard
	wg      sync.WaitGroup
	batch   *Batch
	next    atomic.Uint64 // round-robin shard cursor, shared by every submitter
	free    chan *Batch   // recycled batches; pre-filled so steady state never allocates
	metrics Metrics
	state   atomic.Int32 // State; written by submitters, read by anyone
	result  *core.Result
	// carry holds, per set, the assignments the shards' byte counters do
	// not: 256 for every wrap of any shard's count, plus the counts a
	// restored engine starts from (NewFromCheckpoint). carryOnce
	// allocates it at the first wrap or restore, so the counters of an
	// instance whose sets all take fewer than 256 assignments per shard
	// cost one byte a set a shard. Shards bump it atomically; it is
	// read, like the byte counters, only once the shards are quiesced
	// (counts).
	carry     []int32
	carryOnce sync.Once
}

// shard is one worker: a bounded inbox and shard-local bookkeeping.
type shard struct {
	in chan part
	// assigned is the shard's per-set assignment count modulo 256; each
	// wrap to 0 adds 256 to the engine's carry. One byte a set keeps the
	// array the decide loop writes a quarter the size of int32 counters.
	assigned []uint8
	idx      int // shard index, keys the telemetry ring
}

// New builds an engine over the given up-front information (weights and
// sizes), resolving cfg.Policy through the core policy registry and
// setting it up under seed. Every shard — and any serial or remote
// replica running the same (policy, seed) pair — agrees on all decisions
// without coordination. A custom policy (another hash family, an
// experimental rule) is registered with core.RegisterPolicy and then
// named like any other.
func New(info core.Info, seed uint64, cfg Config) (*Engine, error) {
	pol, err := core.LookupPolicy(cfg.Policy)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	state, err := pol.Setup(info, seed)
	if err != nil {
		return nil, fmt.Errorf("engine: setup policy %s: %w", pol.Name(), err)
	}
	cfg = cfg.withDefaults()
	e := &Engine{
		cfg:     cfg,
		info:    info,
		policy:  pol.Name(),
		decider: state,
		tel:     cfg.Telemetry,
		shards:  make([]*shard, cfg.Shards),
		batch:   new(Batch),
	}
	// Pre-fill the free list with every batch that can be in flight at
	// once: one per queue slot, one being processed per shard, one in the
	// submitter's hand, plus slack. Ingestion then recycles this fixed
	// population and never allocates a batch again.
	maxInFlight := cfg.Shards*(cfg.QueueDepth+1) + 2
	e.free = make(chan *Batch, maxInFlight)
	for i := 0; i < maxInFlight-1; i++ {
		e.free <- new(Batch)
	}
	e.metrics.start()
	for i := range e.shards {
		s := &shard{
			in:       make(chan part, cfg.QueueDepth),
			assigned: make([]uint8, info.NumSets()),
			idx:      i,
		}
		e.shards[i] = s
		e.wg.Add(1)
		go e.run(s)
	}
	return e, nil
}

// run is the shard worker loop: decide every element of every inbound
// batch part with the policy's pure Admit and count assignments locally.
// No locks, no shared writes — only the amortized per-part metrics
// publication and the batch's countdown. The batch is only read: Admit
// names the winners by position, which indexes both the counter bump
// and the element's verdict bit. With telemetry attached
// the loop additionally observes queue wait and decide time once per
// part and, for every sampled element (a shard-local countdown), records
// the decision into the shard's preallocated ring — all of it
// allocation-free, which is what keeps the telemetry-enabled alloc gate
// at zero.
func (e *Engine) run(s *shard) {
	defer e.wg.Done()
	decider := e.decider
	var slog *obs.ShardLog
	var qwait, decide *obs.Histogram
	if e.tel != nil {
		slog = e.tel.Decisions.Shard(s.idx)
		qwait = e.tel.QueueWait
		decide = e.tel.Decide
	}
	var pos []int32 // Admit's positions; grows to the widest element once
	for p := range s.in {
		b := p.b
		var t0 time.Time
		if qwait != nil || decide != nil {
			t0 = time.Now()
			if qwait != nil && !b.enq.IsZero() {
				qwait.Observe(t0.Sub(b.enq))
			}
		}
		base := b.base
		wantMasks := b.Done != nil
		// Hoist the per-part invariants out of the element loop: the
		// slice headers never change while parts are in flight, so the
		// loop reads registers instead of reloading through the batch
		// pointer every element.
		batchMembers, offs, caps, masks := b.Members, b.Offs, b.Caps, b.Masks
		counts := s.assigned
		at := p.maskOff
		var assigned, dropped uint64
		for i := p.lo; i < p.hi; i++ {
			members := batchMembers[offs[i]:offs[i+1]]
			pos = decider.Admit(members, int(caps[i]), pos)
			for _, j := range pos {
				set := members[j]
				if counts[set]++; counts[set] == 0 {
					e.wrap(set)
				}
			}
			assigned += uint64(len(pos))
			dropped += uint64(len(members) - len(pos))
			if wantMasks {
				// Bit j of the element's verdict bytes, LSB first, is
				// members[j]'s verdict (wire.MaskBit reads it back).
				for _, j := range pos {
					masks[at+int(j>>3)] |= 1 << (j & 7)
				}
				at += wire.MaskLen(len(members))
			}
			if slog != nil && slog.Sample() {
				slog.Record(obs.Record{
					Element:      base + uint64(i),
					Verdict:      sampledMask(pos),
					TimeUnixNano: time.Now().UnixNano(),
					Members:      int32(len(members)),
					Admitted:     int32(len(pos)),
				})
			}
		}
		if decide != nil {
			decide.Observe(time.Since(t0))
		}
		// Past the countdown only the last part's shard may touch b: the
		// others' writes happen before its decrement reaches zero.
		last := b.pending.Add(-1) == 0
		e.metrics.observePart(uint64(p.hi-p.lo), assigned, dropped, last)
		if !last {
			continue
		}
		// Detach the callback trio before recycling: Done runs after the
		// batch is back on the free list, so it must not see the batch.
		// Aliased batches are not free-listed — the transport slot that
		// owns the struct (and the buffers it aliases) reuses it after
		// the verdict frame round-trips.
		seq, done := b.Seq, b.Done
		aliased := b.Aliased
		b.Reset()
		if !aliased {
			e.putBatch(b)
		}
		if done != nil {
			done(seq, masks)
		}
	}
}

// wrap moves the 256 assignments of a shard's byte counter that just
// wrapped to 0 into the carry, allocating the carry on the first wrap.
func (e *Engine) wrap(set setsystem.SetID) {
	e.carryOnce.Do(func() { e.carry = make([]int32, e.info.NumSets()) })
	atomic.AddInt32(&e.carry[set], 256)
}

// counts merges the per-set assignment counts: the carry plus every
// shard's byte counters. The shards must be quiesced — stopped (Drain)
// or caught up with every submitted element (Checkpoint): each shard
// publishes a part's processed count with an atomic add after writing
// its counters and carry, which orders those writes before these reads.
// The first shard's counters assign the total (with the carry, once a
// counter has wrapped) and the others add to it, so the merge makes one
// pass per shard.
func (e *Engine) counts() []int32 {
	total := make([]int32, e.info.NumSets())
	first := e.shards[0].assigned
	t := total[:len(first)]
	if e.carry != nil {
		carry := e.carry[:len(first)]
		for i, c := range first {
			t[i] = carry[i] + int32(c)
		}
	} else {
		for i, c := range first {
			t[i] = int32(c)
		}
	}
	for _, s := range e.shards[1:] {
		t := total[:len(s.assigned)]
		for i, c := range s.assigned {
			t[i] += int32(c)
		}
	}
	return total
}

// sampledMask is the admit bitmask of a sampled decision: bit j set
// means the element's j-th member was admitted, for Admit's positions
// pos. Positions past 63 are truncated; Decision.Members still reports
// the true width.
func sampledMask(pos []int32) uint64 {
	var mask uint64
	for _, j := range pos {
		if j < 64 {
			mask |= 1 << j
		}
	}
	return mask
}

// getBatch pulls a recycled batch, falling back to allocation only if the
// pre-filled population is somehow exhausted.
func (e *Engine) getBatch() *Batch {
	select {
	case b := <-e.free:
		return b
	default:
		return new(Batch)
	}
}

// putBatch returns a processed batch to the free list (dropping it if the
// list is full, which only happens for fallback-allocated batches).
func (e *Engine) putBatch(b *Batch) {
	select {
	case e.free <- b:
	default:
	}
}

// BorrowBatch hands out an empty flat batch from the engine's recycled
// population — the entry point of the zero-copy wire path. The caller
// fills Members/Offs/Caps directly (wire.DecodeBatch appends exactly
// this shape), validates with Batch.Validate, and passes the batch to
// SubmitBatch; a batch that will not be submitted after all must go back
// through ReturnBatch. Borrowed batches draw on the same pre-filled
// free-list population as Submit's internal batching, so steady-state
// wire ingestion allocates nothing.
func (e *Engine) BorrowBatch() *Batch {
	b := e.getBatch()
	b.Reset()
	return b
}

// ReturnBatch returns a borrowed batch to the free list unsubmitted —
// the error path of the wire decode (malformed frame, failed
// validation). An aliased batch is only detached from its foreign
// storage, never free-listed: the struct stays with the transport slot
// that owns it.
func (e *Engine) ReturnBatch(b *Batch) {
	aliased := b.Aliased
	b.Reset()
	if !aliased {
		e.putBatch(b)
	}
}

// SubmitBatch hands a filled batch to the shards, skipping the
// per-element copy Submit does: the batch is either borrowed
// (BorrowBatch) with the wire bytes decoded straight into its buffers,
// or caller-owned and marked Aliased. Ownership of a borrowed batch
// passes to the engine. The caller must have validated the contents
// (Batch.Validate or setsystem.CheckElement per element; SubmitBatch
// trusts them) and must not touch the batch afterwards, whatever the
// outcome — on error it is returned or detached internally, and Done
// never fires. Like Submit, it blocks when a target shard's queue is
// full (backpressure).
//
// SubmitBatch is safe for concurrent callers: they share one atomic
// round-robin cursor, and everything else a submission touches is a
// channel send or an atomic. It must not run concurrently with Drain or
// Checkpoint, which the caller fences (internal/serve holds an
// RWMutex's read side per submit; Drain takes the write side), because
// Drain closes the shard queues a submission sends into.
//
// Batch sizing is the caller's: a batch is not re-split to
// Config.BatchSize. A batch of at least 2·minPart elements is decided in
// up to NumShards contiguous parts on consecutive shards at once (see
// dispatch); a smaller one goes to the next shard round-robin as one part.
func (e *Engine) SubmitBatch(b *Batch) error {
	st := State(e.state.Load())
	if st == StateDrained {
		e.ReturnBatch(b)
		return ErrDrained
	}
	n := b.Len()
	if n == 0 {
		e.ReturnBatch(b)
		return nil
	}
	if len(b.Offs) != n+1 || b.Offs[0] != 0 || int(b.Offs[n]) != len(b.Members) {
		e.ReturnBatch(b)
		return fmt.Errorf("engine: malformed batch: %d caps, %d offs over %d members", n, len(b.Offs), len(b.Members))
	}
	if st == StateIdle {
		e.state.Store(int32(StateStreaming))
	}
	e.dispatch(b)
	return nil
}

// dispatch is the one path from a submitter to the shards. It publishes
// the batch's elements as submitted, then cuts the batch into k =
// min(shards, n/minPart) contiguous parts (at least one) holding about
// equal member counts, claims k consecutive shards from the cursor with
// one atomic add and sends part j to the j-th. For a batch with Done it
// first extends Masks by the whole frame's zeroed verdict bytes, so each
// part writes its own byte range and no shard waits on another. The
// batch must be non-empty and well-formed; once the last part is sent
// it belongs to the shards, so nothing here reads it after that send.
func (e *Engine) dispatch(b *Batch) {
	offs := b.Offs
	n := len(offs) - 1
	b.base = e.metrics.submitted.Add(uint64(n)) - uint64(n)
	if e.tel != nil {
		b.enq = time.Now()
	}
	wantMasks := b.Done != nil
	maskOff := 0
	if wantMasks {
		// A short buffer grows through append's own steps, as the
		// per-element appends of one shard used to grow it: jumping
		// straight to the needed size (slices.Grow) cost ~2 MB of server
		// RSS on perfbench bulk. A recycled buffer is resliced and zeroed.
		maskOff = len(b.Masks)
		need := maskOff + maskBytes(offs, 0, n)
		for cap(b.Masks) < need {
			b.Masks = append(b.Masks[:cap(b.Masks)], 0)
		}
		b.Masks = b.Masks[:need]
		clear(b.Masks[maskOff:])
	}
	k := max(1, min(len(e.shards), n/minPart))
	b.pending.Store(int32(k))
	first := int((e.next.Add(uint64(k)) - uint64(k)) % uint64(len(e.shards)))
	nmem := int(offs[n])
	lo := 0
	for j := 1; j <= k; j++ {
		hi := n
		if j < k {
			// The first element at or past the j-th k-quantile of
			// members, leaving every part at least one element.
			i, _ := slices.BinarySearch(offs[lo+1:n-(k-j)], int32(j*nmem/k))
			hi = lo + 1 + i
		}
		e.shards[(first+j-1)%len(e.shards)].in <- part{b: b, lo: lo, hi: hi, maskOff: maskOff}
		if wantMasks && j < k {
			maskOff += maskBytes(offs, lo, hi)
		}
		lo = hi
	}
}

// maskBytes returns the verdict-frame bytes of elements [lo, hi).
func maskBytes(offs []int32, lo, hi int) int {
	total := 0
	for i := lo; i < hi; i++ {
		total += wire.MaskLen(int(offs[i+1] - offs[i]))
	}
	return total
}

// Submit offers one arriving element to the stream. It validates the
// element, bulk-copies it into the current flat batch and, when the batch
// is full, dispatches it to the shards — blocking if a target shard's
// queue is full (backpressure). The element's Members slice is copied
// immediately and never retained, so callers are free to reuse member
// buffers between calls.
func (e *Engine) Submit(el setsystem.Element) error {
	st := State(e.state.Load())
	if st == StateDrained {
		return ErrDrained
	}
	if err := setsystem.CheckElement(el, e.info.NumSets()); err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	if st == StateIdle {
		e.state.Store(int32(StateStreaming))
	}
	e.batch.add(el)
	if e.batch.Len() >= e.cfg.BatchSize {
		e.flush()
	}
	return nil
}

// flush dispatches the current batch, publishing its element count to
// the submitted counter — one atomic update per batch, not per element.
func (e *Engine) flush() {
	if e.batch.Len() == 0 {
		return
	}
	e.dispatch(e.batch)
	e.batch = e.getBatch()
}

// Drain closes the stream: it flushes the partial batch, stops all shard
// workers and merges their bookkeeping into the final Result. The result
// is bit-for-bit identical to core.Run with the policy's serial oracle
// (core.PolicyAlgorithm under the engine's policy and seed): assignment
// counts are exact integer sums, and the completion sweep accumulates
// benefit in ascending SetID order exactly like the serial runner. Drain
// is idempotent; subsequent Submits fail with ErrDrained.
func (e *Engine) Drain() (*core.Result, error) {
	if e.result != nil {
		return e.result, nil
	}
	e.flush()
	for _, s := range e.shards {
		close(s.in)
	}
	e.wg.Wait()

	res := core.ResultFromCounts(e.info, e.counts())
	e.result = res
	e.metrics.finish(res)
	e.state.Store(int32(StateDrained))
	return res, nil
}

// State returns the engine's lifecycle position. Safe to call from any
// goroutine at any time.
func (e *Engine) State() State { return State(e.state.Load()) }

// PolicyName returns the resolved registry name of the engine's policy
// ("randpr" for the default), echoed in API responses and metrics.
func (e *Engine) PolicyName() string { return e.policy }

// Metrics returns the engine's live counters. Safe to read concurrently
// with the stream.
func (e *Engine) Metrics() *Metrics { return &e.metrics }

// NumShards returns the resolved shard count.
func (e *Engine) NumShards() int { return len(e.shards) }

// Replay streams a whole instance through a fresh engine and returns the
// final result — the concurrent counterpart of core.Run(inst,
// &core.PolicyAlgorithm{Policy: cfg.Policy, Seed: seed}, nil). Elements
// are copied at Submit, so the instance is never aliased by the engine.
// If a Submit fails mid-stream, the engine is still drained to stop the
// shard workers and the submit and drain errors are joined.
func Replay(inst *setsystem.Instance, seed uint64, cfg Config) (*core.Result, error) {
	e, err := New(core.InfoOf(inst), seed, cfg)
	if err != nil {
		return nil, err
	}
	for _, el := range inst.Elements {
		if err := e.Submit(el); err != nil {
			_, derr := e.Drain() // stop the shard workers before bailing out
			return nil, errors.Join(err, derr)
		}
	}
	return e.Drain()
}

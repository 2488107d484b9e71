package client

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"repro/osp"
)

// RetryPolicy is a deadline-budgeted retry schedule for the ingest and
// drain paths (WithRetry). An attempt that fails with a retryable error
// — any transport-level failure, plus HTTP 429 and 5xx — is re-run
// after a jittered exponential backoff, until it succeeds, a permanent
// error surfaces, MaxAttempts is spent, or the total Budget runs out.
// Permanent errors (4xx other than 429: malformed batch, unknown
// instance, ingest after drain) are authoritative and are NEVER
// retried — a bad request does not become good by repetition.
//
// Retried ingest is at-least-once: a batch whose connection died after
// the server processed it but before the verdicts arrived is resent on
// retry and ingested twice. Single-node callers that need exactness
// should treat a retried-then-failed batch as poisoned and drain; the
// cluster coordinator gets exactness back by journaling acknowledged
// shares and replaying onto a fresh replacement node, where resending
// is safe by construction.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries (first attempt included).
	// 0 means the default, 4.
	MaxAttempts int
	// BaseBackoff is the wait before the first retry; each further retry
	// doubles it, jittered to a uniform draw from [b/2, b]. 0 means the
	// default, 50ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the doubling. 0 means the default, 2s.
	MaxBackoff time.Duration
	// PerAttempt bounds each attempt with its own timeout, so one hung
	// connection (a blackholed node) cannot eat the whole budget.
	// 0 means attempts are bounded only by the caller's context.
	PerAttempt time.Duration
	// Budget bounds the whole retrying call, backoffs included. When it
	// expires the last attempt's error is returned joined with
	// context.DeadlineExceeded. 0 means no budget beyond the caller's
	// context.
	Budget time.Duration
}

// WithRetry enables the deadline-budgeted retry policy on this client's
// ingest paths (Ingest and IngestFunc — including re-dialing a broken
// verdict stream) and on Drain (idempotent server-side). Verdict
// callbacks are buffered per attempt and delivered only after the
// attempt succeeds, so a batch that rides through a failover fires each
// element's callback exactly once, in batch order.
func WithRetry(p RetryPolicy) Option {
	return func(c *Client) { c.retry = &p }
}

// retryable reports whether an attempt error is worth repeating: every
// transport-level failure (dial refused, connection reset, attempt
// timeout — the server may never have seen the request), plus the
// transient statuses 429 (pool full) and 5xx (shutting down, upstream
// hiccup). All other *APIErrors are permanent.
func retryable(err error) bool {
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		return apiErr.StatusCode == http.StatusTooManyRequests || apiErr.StatusCode >= 500
	}
	return true
}

// withRetry runs f under the client's retry policy; without one, f runs
// exactly once with zero overhead.
func (c *Client) withRetry(ctx context.Context, f func(ctx context.Context) error) error {
	p := c.retry
	if p == nil {
		return f(ctx)
	}
	if p.Budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, p.Budget)
		defer cancel()
	}
	maxAttempts := p.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = 4
	}
	backoff := p.BaseBackoff
	if backoff <= 0 {
		backoff = 50 * time.Millisecond
	}
	maxBackoff := p.MaxBackoff
	if maxBackoff <= 0 {
		maxBackoff = 2 * time.Second
	}
	for attempt := 1; ; attempt++ {
		actx := ctx
		var cancel context.CancelFunc
		if p.PerAttempt > 0 {
			actx, cancel = context.WithTimeout(ctx, p.PerAttempt)
		}
		err := f(actx)
		if cancel != nil {
			cancel()
		}
		if err == nil {
			return nil
		}
		if ctx.Err() != nil {
			// The budget (or the caller) expired — the attempt's error is
			// circumstance, the deadline is the cause; joined, errors.Is
			// finds either.
			return fmt.Errorf("client: retry budget exhausted after %d attempt(s): %w",
				attempt, errors.Join(err, ctx.Err()))
		}
		if !retryable(err) || attempt >= maxAttempts {
			return err
		}
		// Jitter: a uniform draw from [backoff/2, backoff] so a fleet of
		// retrying clients does not stampede the replacement node in step.
		wait := backoff/2 + time.Duration(rand.Int63n(int64(backoff/2)+1))
		if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return fmt.Errorf("client: retry budget exhausted after %d attempt(s): %w",
				attempt, errors.Join(err, ctx.Err()))
		}
	}
}

// verdictBuf holds one attempt's verdict callbacks — element index plus
// a copy of the admitted sets, flat in one arena — so a failed attempt
// delivers nothing and the successful one delivers everything, in batch
// order, exactly once.
type verdictBuf struct {
	idx  []int
	offs []int // start offset of callback k's admitted sets in sets
	sets []osp.SetID
}

func (b *verdictBuf) reset() {
	b.idx, b.offs, b.sets = b.idx[:0], b.offs[:0], b.sets[:0]
}

// collect is the per-attempt callback: it copies, because the admitted
// slice it receives is reused scratch.
func (b *verdictBuf) collect(i int, admitted []osp.SetID) {
	b.idx = append(b.idx, i)
	b.offs = append(b.offs, len(b.sets))
	b.sets = append(b.sets, admitted...)
}

// flush replays the buffered callbacks into the caller's fn.
func (b *verdictBuf) flush(fn func(i int, admitted []osp.SetID)) {
	for k, i := range b.idx {
		end := len(b.sets)
		if k+1 < len(b.offs) {
			end = b.offs[k+1]
		}
		fn(i, b.sets[b.offs[k]:end:end])
	}
}

var verdictBufPool = sync.Pool{New: func() any { return new(verdictBuf) }}

package client

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"time"
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
// An ingest attempt that fails before its batch frame is written is
// resent. After the write, two failures are final because the node may
// have decided the batch, so a resend could ingest it twice: a
// PerAttempt timeout (the node may yet answer) and a malformed verdict
// frame (it did answer). EOF or a connection reset after the write
// stays at-least-once: the node may have decided the batch before the
// connection died, and the retry resends it. Callers that need
// exactness should treat a retried-then-failed batch as poisoned and
// drain; the cluster coordinator gets exactness back from a dead node
// by journaling acknowledged shares and replaying onto a fresh
// replacement node, where resending is safe by construction.
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
// ingest paths (Ingest, IngestFunc and this client's shares of an
// IngestShares call — including re-dialing a broken verdict stream) and
// on Drain (idempotent server-side). An attempt is retried only when no
// verdict of it reached the callback, so a batch that rides through a
// reconnect fires each element's callback exactly once, in batch order.
func WithRetry(p RetryPolicy) Option {
	return func(c *Client) { c.retry = &p }
}

// decidedError marks an ingest attempt's error that struck after the
// node may have decided the batch: a deadline once the batch frame was
// written, or a malformed verdict frame. It is never retried.
type decidedError struct{ error }

func (e decidedError) Unwrap() error { return e.error }

// retryable reports whether an attempt error is worth repeating: every
// transport-level failure (dial refused, connection reset, attempt
// timeout — the server may never have seen the request), plus the
// transient statuses 429 (pool full) and 5xx (shutting down, upstream
// hiccup). All other *APIErrors are permanent, and so is a
// decidedError.
func retryable(err error) bool {
	if errors.As(err, new(decidedError)) {
		return false
	}
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		return apiErr.StatusCode == http.StatusTooManyRequests || apiErr.StatusCode >= 500
	}
	return true
}

// withRetry runs f under the client's retry policy; without one, f runs
// exactly once.
func (c *Client) withRetry(ctx context.Context, f func(ctx context.Context) error) error {
	r := c.newRetrier(ctx)
	defer r.close()
	for {
		actx, cancel := r.start()
		err := f(actx)
		if cancel != nil {
			cancel()
		}
		if err == nil {
			return nil
		}
		if err = r.again(err); err != nil {
			return err
		}
	}
}

// retrier steps one call through the client's retry policy: the Budget
// spans every attempt and backoff, each attempt gets its own PerAttempt
// timeout, and a failed attempt is followed by a jittered backoff.
// withRetry drives it in a loop; IngestShares splits each share's first
// attempt into a send and a receive around the other shares' and runs
// the rest of the loop after every first attempt is in. Without a
// policy the call's context passes straight through and the first
// error is final.
type retrier struct {
	p          *RetryPolicy
	ctx        context.Context // the caller's, bounded by the Budget
	cancel     context.CancelFunc
	attempt    int
	max        int
	backoff    time.Duration
	maxBackoff time.Duration
}

func (c *Client) newRetrier(ctx context.Context) retrier {
	r := retrier{p: c.retry, ctx: ctx}
	if r.p == nil {
		return r
	}
	if r.p.Budget > 0 {
		r.ctx, r.cancel = context.WithTimeout(ctx, r.p.Budget)
	}
	r.max = r.p.MaxAttempts
	if r.max <= 0 {
		r.max = 4
	}
	r.backoff = r.p.BaseBackoff
	if r.backoff <= 0 {
		r.backoff = 50 * time.Millisecond
	}
	r.maxBackoff = r.p.MaxBackoff
	if r.maxBackoff <= 0 {
		r.maxBackoff = 2 * time.Second
	}
	return r
}

// start opens the next attempt: its context and, under PerAttempt, the
// cancel the caller runs once the attempt is over (nil otherwise).
func (r *retrier) start() (context.Context, context.CancelFunc) {
	r.attempt++
	if r.p == nil || r.p.PerAttempt <= 0 {
		return r.ctx, nil
	}
	return context.WithTimeout(r.ctx, r.p.PerAttempt)
}

// again decides after a failed attempt. It returns nil once the backoff
// before the next attempt has passed, or the error the call ends with.
func (r *retrier) again(err error) error {
	if r.p == nil {
		return err
	}
	if r.ctx.Err() != nil {
		// The budget (or the caller) expired — the attempt's error is
		// circumstance, the deadline is the cause; joined, errors.Is
		// finds either.
		return fmt.Errorf("client: retry budget exhausted after %d attempt(s): %w",
			r.attempt, errors.Join(err, r.ctx.Err()))
	}
	if !retryable(err) || r.attempt >= r.max {
		return err
	}
	// Jitter: a uniform draw from [backoff/2, backoff] so a fleet of
	// retrying clients does not stampede the replacement node in step.
	wait := r.backoff/2 + time.Duration(rand.Int63n(int64(r.backoff/2)+1))
	if r.backoff *= 2; r.backoff > r.maxBackoff {
		r.backoff = r.maxBackoff
	}
	select {
	case <-time.After(wait):
		return nil
	case <-r.ctx.Done():
		return fmt.Errorf("client: retry budget exhausted after %d attempt(s): %w",
			r.attempt, errors.Join(err, r.ctx.Err()))
	}
}

// close releases the Budget's timer.
func (r *retrier) close() {
	if r.cancel != nil {
		r.cancel()
	}
}

package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// bufPool recycles the buffers worker responses are read into and
// merged responses are spliced into: an explain body runs to hundreds
// of KB, and reading one into a fresh slice regrows it a dozen times.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledBuf keeps an occasional huge batch's buffer from being held
// by the pool for good.
const maxPooledBuf = 4 << 20

func getBuf() *[]byte {
	b := bufPool.Get().(*[]byte)
	*b = (*b)[:0]
	return b
}

func putBuf(b *[]byte) {
	if b != nil && cap(*b) <= maxPooledBuf {
		bufPool.Put(b)
	}
}

func putBufs(bufs []*[]byte) {
	for _, b := range bufs {
		putBuf(b)
	}
}

// appendAll is io.ReadAll into dst's spare capacity.
func appendAll(dst []byte, r io.Reader) ([]byte, error) {
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// passthrough is a worker's non-200 answer. A non-retryable (4xx) one
// is the request's own fault and reaches the client as the worker wrote
// it, bar relayFault's renumbering of a tuple position. Its body is a
// copy, never a pooled buffer.
type passthrough struct {
	status int
	body   []byte
}

func (p *passthrough) Error() string {
	return fmt.Sprintf("worker answered HTTP %d: %s", p.status, bytes.TrimSpace(p.body))
}

// retryableStatus reports whether a worker status code is worth another
// attempt: transient server-side states (5xx, including the bounded
// queue's 503/504) and queue rejection (429). 4xx semantics are the
// request's own fault and retrying cannot change them.
func retryableStatus(code int) bool {
	return code >= 500 || code == http.StatusTooManyRequests
}

// dispatch sends one sub-batch to its pinned worker, retrying with
// exponential backoff (postWithRetry), then hedges across the remaining
// routable workers in ring order until one answers or the request's
// context ends. A pinned worker that is stale, on another rules
// generation than the activated one, is skipped while it stays so. It
// reads the successful worker's raw response bytes into *dst, or
// returns a *passthrough for a 4xx answer, which the caller relays. The
// method is threaded explicitly from the handler so every hop of a
// sub-batch carries the same (method, path) pair the httpcontract check
// resolves against the worker's registered routes.
func (c *Coordinator) dispatch(ctx context.Context, method, path string, body []byte, pinned int, dst *[]byte) error {
	var lastErr error
	if !c.reg.stale(pinned) {
		down, err := c.postWithRetry(ctx, pinned, method, path, body, dst)
		if !down {
			return err
		}
		lastErr = err
	}

	// The pinned worker is stale, or out of budget and marked down:
	// hedge the sub-batch across the rest of the fleet. One attempt per
	// routable peer — the retry budget was the pinned worker's; a peer
	// that also fails is likely sharing its fate (network partition, bad
	// push) and burning backoff on it only delays the client's error.
	// The ring ends at the pinned worker itself: a stale one becomes
	// routable when the peers that failed here were the last live ones
	// on the activated generation.
	n := len(c.workers)
	for off := 1; off <= n; off++ {
		j := (pinned + off) % n
		if !c.reg.routable(j) {
			continue
		}
		c.metrics.redispatches.Add(1)
		err := c.tryWorker(ctx, j, method, path, body, dst)
		if err == nil {
			return nil
		}
		if pt, ok := err.(*passthrough); ok && !retryableStatus(pt.status) {
			return pt
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		c.reg.markDead(j, err)
		c.metrics.workerFailures.Add(1)
		lastErr = err
	}
	if lastErr == nil {
		return fmt.Errorf("no routable worker for %s sub-batch pinned to worker %d", path, pinned)
	}
	return fmt.Errorf("all workers failed for %s sub-batch pinned to worker %d: %w", path, pinned, lastErr)
}

// postWithRetry sends body to worker i with bounded retries and
// exponential backoff, reading the answer into *dst. A 4xx passthrough,
// or an attempt or backoff cut short by the end of the request's
// context, returns at once with down false: the request ended, not the
// worker. A worker that uses up its budget is marked down and its last
// error returned with down true.
func (c *Coordinator) postWithRetry(ctx context.Context, i int, method, path string, body []byte, dst *[]byte) (down bool, err error) {
	backoff := c.cfg.retryBackoff()
	var lastErr error
	for attempt := 0; attempt <= c.cfg.retries(); attempt++ {
		if attempt > 0 {
			c.metrics.retriesTotal.Add(1)
			if err := sleepCtx(ctx, backoff); err != nil {
				return false, err
			}
			backoff *= 2
		}
		err := c.tryWorker(ctx, i, method, path, body, dst)
		if err == nil {
			return false, nil
		}
		if pt, ok := err.(*passthrough); ok && !retryableStatus(pt.status) {
			return false, pt
		}
		if ctx.Err() != nil {
			return false, ctx.Err()
		}
		lastErr = err
	}
	c.reg.markDead(i, lastErr)
	c.metrics.workerFailures.Add(1)
	return true, lastErr
}

// tryWorker makes one request attempt against one worker, bounded by
// the per-worker timeout, reading the answer into *dst. A non-200
// answer comes back as *passthrough so the caller can distinguish
// retryable statuses from client errors.
func (c *Coordinator) tryWorker(ctx context.Context, i int, method, path string, body []byte, dst *[]byte) error {
	actx, cancel := context.WithTimeout(ctx, c.cfg.perWorkerTimeout())
	defer cancel()
	req, err := http.NewRequestWithContext(actx, method, c.workers[i]+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	//ermvet:ignore errdrop nothing to do about a close error after the body is fully read
	defer resp.Body.Close()
	*dst, err = appendAll((*dst)[:0], resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return &passthrough{status: resp.StatusCode, body: bytes.Clone(*dst)}
	}
	return nil
}

// sleepCtx is a context-aware backoff sleep.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

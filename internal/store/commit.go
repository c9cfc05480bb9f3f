package store

import (
	"sync"
	"time"
)

// batch is one group-commit round: the encoded mutations it carries and the
// completion signal its waiters block on.
type batch struct {
	ops  [][]byte
	done chan struct{}
	err  error
}

// committer is the group-commit engine behind the file backend. A
// single flusher goroutine drains batches: it hands each batch's bytes to
// the backend's flush function (write + fsync + post-processing such as
// segment rotation), then releases every waiter at once. While a flush is in
// flight new mutations pile into the next batch, so concurrent writers share
// fsyncs without any of them observing a non-durable acknowledgement.
type committer struct {
	cfg   FlushConfig
	stats *counters

	// flush persists one batch of encoded records; it runs on the flusher
	// goroutine only and must return once the bytes are on disk.
	flush func(ops [][]byte) error

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []*batch // open + full batches, oldest first
	pending int      // mutations accepted but not yet durable
	closed  bool
	failed  error // sticky: first flush error poisons the store

	wg sync.WaitGroup
}

func newCommitter(cfg FlushConfig, stats *counters, flush func([][]byte) error) *committer {
	c := &committer{cfg: cfg, stats: stats, flush: flush}
	c.cond = sync.NewCond(&c.mu)
	c.wg.Add(1)
	go c.run()
	return c
}

// commit enqueues one encoded mutation and blocks until the batch holding it
// is durable. The caller must NOT hold the backend mutex used to order
// mutations while waiting — enqueue under it, then release it before the
// wait (enqueue order is batch order, so versions stay consistent).
func (c *committer) commit(enc []byte) error {
	b, err := c.enqueue(enc)
	if err != nil {
		return err
	}
	return c.wait(b)
}

// enqueue is the first half of commit: it adds the mutation to the open
// batch and returns immediately. Backends call it while holding their
// ordering mutex so batch order matches version order, then release that
// mutex and wait. Lock order is backend mutex → c.mu, never the reverse.
func (c *committer) enqueue(enc []byte) (*batch, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, errClosed
	}
	if c.failed != nil {
		return nil, c.failed
	}
	b := c.tail()
	b.ops = append(b.ops, enc)
	c.pending++
	c.stats.gPending.Set(float64(c.pending))
	c.cond.Broadcast()
	return b, nil
}

// wait blocks until the batch is durable.
func (c *committer) wait(b *batch) error {
	<-b.done
	return b.err
}

// tail returns the open batch, starting a new one when none is open or the
// last is full; caller holds c.mu.
func (c *committer) tail() *batch {
	if n := len(c.queue); n > 0 && len(c.queue[n-1].ops) < c.cfg.maxBatch() {
		return c.queue[n-1]
	}
	b := &batch{done: make(chan struct{})}
	c.queue = append(c.queue, b)
	return b
}

// sync blocks until everything accepted so far is durable.
func (c *committer) sync() error {
	c.mu.Lock()
	for c.pending > 0 && c.failed == nil && !c.closed {
		c.cond.Wait()
	}
	err := c.failed
	c.mu.Unlock()
	return err
}

// pendingCount reports mutations awaiting fsync.
func (c *committer) pendingCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pending
}

// close drains the queue and stops the flusher.
func (c *committer) close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.cond.Broadcast()
	c.mu.Unlock()
	c.wg.Wait()
	c.mu.Lock()
	err := c.failed
	c.mu.Unlock()
	return err
}

// run is the flusher goroutine.
func (c *committer) run() {
	defer c.wg.Done()
	for {
		c.mu.Lock()
		for len(c.queue) == 0 && !c.closed {
			c.cond.Wait()
		}
		if len(c.queue) == 0 && c.closed {
			c.mu.Unlock()
			return
		}
		b := c.queue[0]
		if c.cfg.Interval > 0 && len(b.ops) < c.cfg.maxBatch() && !c.closed {
			// Linger: let more mutations join this batch. Re-check under the
			// lock after sleeping — the batch may have filled meanwhile.
			c.mu.Unlock()
			time.Sleep(c.cfg.Interval)
			c.mu.Lock()
			b = c.queue[0]
		}
		c.queue = c.queue[1:]
		c.mu.Unlock()

		start := time.Now()
		err := c.flush(b.ops)
		c.stats.noteFlush(len(b.ops), time.Since(start))

		c.mu.Lock()
		c.pending -= len(b.ops)
		c.stats.gPending.Set(float64(c.pending))
		if err != nil && c.failed == nil {
			c.failed = err
		}
		c.cond.Broadcast()
		c.mu.Unlock()

		b.err = err
		close(b.done)
	}
}

// Package queue provides the queueing toolkit of the fabric: the lock-free
// multi-producer/multi-consumer ring the batch-threads share (Section 4.3
// asks "why have a common queue?" — so any enqueued request is consumed as
// soon as any batch-thread is available, without contention), reference
// mutex- and channel-based queues used as ablation baselines, and the
// in-order execution queue of Section 4.6.
package queue

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Queue is a bounded FIFO shared by concurrent producers and consumers.
// Pop blocks until an item arrives or the queue is closed and drained;
// the second return value is false only in the latter case.
type Queue[T any] interface {
	// TryPush enqueues v without blocking; it reports false when full
	// or closed.
	TryPush(v T) bool
	// Push enqueues v, blocking while the queue is full. It reports false
	// if the queue was closed.
	Push(v T) bool
	// TryPop dequeues without blocking; it reports false when empty.
	TryPop() (T, bool)
	// Pop dequeues, blocking while the queue is empty. It reports false
	// once the queue is closed and drained.
	Pop() (T, bool)
	// Close marks the queue closed. Pending items may still be popped.
	Close()
	// Len returns the approximate number of queued items.
	Len() int
}

// Compile-time interface compliance checks.
var (
	_ Queue[int] = (*MPMC[int])(nil)
	_ Queue[int] = (*MutexQueue[int])(nil)
	_ Queue[int] = (*ChanQueue[int])(nil)
)

// ---- Lock-free MPMC ring (Vyukov bounded queue) ----

type cell[T any] struct {
	seq atomic.Uint64
	val T
}

// MPMC is a bounded lock-free multi-producer/multi-consumer FIFO ring.
// It is the "lock-free common queue" placed between the input-thread and
// the batch-threads at the primary (Section 4.3).
//
// Pushes and non-blocking pops stay lock-free. A blocking consumer (Pop)
// parks on a wake channel instead of spinning: a pusher that
// observes registered waiters deposits a wake token, and a woken consumer
// that takes an item re-arms the token for the next waiter (a cascade),
// so idle batch-threads burn no CPU while loaded ones never sleep.
type MPMC[T any] struct {
	mask    uint64
	cells   []cell[T]
	enqPos  atomic.Uint64
	deqPos  atomic.Uint64
	closed  atomic.Bool
	sleepNS int64

	// waiters counts consumers parked (or about to park) in Pop;
	// pushers only touch the wake channel when it is non-zero.
	waiters atomic.Int32
	// wakeC carries at most one wake token. A token means "state changed:
	// recheck" — consumers treat it as a hint, never as an item claim.
	wakeC chan struct{}
}

// NewMPMC returns an MPMC ring holding at least capacity items (rounded up
// to a power of two, minimum 2).
func NewMPMC[T any](capacity int) *MPMC[T] {
	n := 2
	for n < capacity {
		n <<= 1
	}
	q := &MPMC[T]{
		mask:    uint64(n - 1),
		cells:   make([]cell[T], n),
		sleepNS: int64(50 * time.Microsecond),
		wakeC:   make(chan struct{}, 1),
	}
	for i := range q.cells {
		q.cells[i].seq.Store(uint64(i))
	}
	return q
}

// wake deposits the wake token if the slot is free.
func (q *MPMC[T]) wake() {
	select {
	case q.wakeC <- struct{}{}:
	default:
	}
}

// wakeNext re-arms the wake token when more work (or the closed state)
// remains for other parked consumers — the cascade that replaces a
// broadcast.
func (q *MPMC[T]) wakeNext() {
	if q.waiters.Load() > 0 && (q.Len() > 0 || q.closed.Load()) {
		q.wake()
	}
}

// TryPush implements Queue.
func (q *MPMC[T]) TryPush(v T) bool {
	if q.closed.Load() {
		return false
	}
	pos := q.enqPos.Load()
	for {
		c := &q.cells[pos&q.mask]
		seq := c.seq.Load()
		switch d := int64(seq) - int64(pos); {
		case d == 0:
			if q.enqPos.CompareAndSwap(pos, pos+1) {
				c.val = v
				c.seq.Store(pos + 1)
				if q.waiters.Load() > 0 {
					q.wake()
				}
				return true
			}
			pos = q.enqPos.Load()
		case d < 0:
			return false // full
		default:
			pos = q.enqPos.Load()
		}
	}
}

// TryPop implements Queue.
func (q *MPMC[T]) TryPop() (T, bool) {
	var zero T
	pos := q.deqPos.Load()
	for {
		c := &q.cells[pos&q.mask]
		seq := c.seq.Load()
		switch d := int64(seq) - int64(pos+1); {
		case d == 0:
			if q.deqPos.CompareAndSwap(pos, pos+1) {
				v := c.val
				c.val = zero
				c.seq.Store(pos + q.mask + 1)
				return v, true
			}
			pos = q.deqPos.Load()
		case d < 0:
			return zero, false // empty
		default:
			pos = q.deqPos.Load()
		}
	}
}

// Push implements Queue with a spin-then-sleep backoff.
func (q *MPMC[T]) Push(v T) bool {
	for spin := 0; ; spin++ {
		if q.closed.Load() {
			return false
		}
		if q.TryPush(v) {
			return true
		}
		backoff(spin, q.sleepNS)
	}
}

// Pop implements Queue: it blocks by parking on the wake channel (after a
// brief spin) rather than sleep-polling, so an idle consumer costs
// nothing until a pusher or Close wakes it.
func (q *MPMC[T]) Pop() (T, bool) {
	// Fast path: brief spin covers the loaded case without parking.
	for spin := 0; spin < 8; spin++ {
		if v, ok := q.TryPop(); ok {
			return v, true
		}
		if q.closed.Load() {
			v, ok := q.TryPop() // drain race: final attempt
			return v, ok
		}
		runtime.Gosched()
	}
	q.waiters.Add(1)
	defer q.waiters.Add(-1)
	for {
		// Recheck after registering as a waiter: a pusher that missed the
		// registration left no token, but its item is already visible.
		if v, ok := q.TryPop(); ok {
			q.wakeNext()
			return v, true
		}
		if q.closed.Load() {
			q.wakeNext() // cascade the close to other waiters
			v, ok := q.TryPop()
			return v, ok
		}
		<-q.wakeC
	}
}

// Close implements Queue. It wakes parked consumers; each one cascades
// the token onward until all have observed the closed state.
func (q *MPMC[T]) Close() {
	q.closed.Store(true)
	q.wake()
}

// Len implements Queue.
func (q *MPMC[T]) Len() int {
	n := int64(q.enqPos.Load()) - int64(q.deqPos.Load())
	if n < 0 {
		return 0
	}
	return int(n)
}

// Cap returns the ring's fixed capacity (the rounded-up power of two), so
// Len can be read as a fill fraction — the queue-depth gauges do.
func (q *MPMC[T]) Cap() int { return len(q.cells) }

func backoff(spin int, sleepNS int64) {
	switch {
	case spin < 8:
		runtime.Gosched()
	default:
		time.Sleep(time.Duration(sleepNS))
	}
}

// ---- Mutex queue (ablation baseline) ----

// MutexQueue is a bounded FIFO guarded by a mutex and condition variables.
// It exists as the contended baseline for the queue ablation benchmark.
type MutexQueue[T any] struct {
	mu       sync.Mutex
	notEmpty sync.Cond
	notFull  sync.Cond
	buf      []T
	head     int
	size     int
	closed   bool
}

// NewMutexQueue returns a MutexQueue with the given capacity.
func NewMutexQueue[T any](capacity int) *MutexQueue[T] {
	if capacity < 1 {
		capacity = 1
	}
	q := &MutexQueue[T]{buf: make([]T, capacity)}
	q.notEmpty.L = &q.mu
	q.notFull.L = &q.mu
	return q
}

// TryPush implements Queue.
func (q *MutexQueue[T]) TryPush(v T) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed || q.size == len(q.buf) {
		return false
	}
	q.push(v)
	return true
}

func (q *MutexQueue[T]) push(v T) {
	q.buf[(q.head+q.size)%len(q.buf)] = v
	q.size++
	q.notEmpty.Signal()
}

// Push implements Queue.
func (q *MutexQueue[T]) Push(v T) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.size == len(q.buf) && !q.closed {
		q.notFull.Wait()
	}
	if q.closed {
		return false
	}
	q.push(v)
	return true
}

// TryPop implements Queue.
func (q *MutexQueue[T]) TryPop() (T, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	var zero T
	if q.size == 0 {
		return zero, false
	}
	return q.pop(), true
}

func (q *MutexQueue[T]) pop() T {
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head = (q.head + 1) % len(q.buf)
	q.size--
	q.notFull.Signal()
	return v
}

// Pop implements Queue.
func (q *MutexQueue[T]) Pop() (T, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.size == 0 && !q.closed {
		q.notEmpty.Wait()
	}
	var zero T
	if q.size == 0 {
		return zero, false
	}
	return q.pop(), true
}

// Close implements Queue.
func (q *MutexQueue[T]) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.notEmpty.Broadcast()
	q.notFull.Broadcast()
}

// Len implements Queue.
func (q *MutexQueue[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.size
}

// ---- Channel queue ----

// ChanQueue adapts a buffered channel to the Queue interface. It is the
// idiomatic-Go baseline for the queue ablation benchmark and the default
// inter-stage queue in the replica pipeline.
type ChanQueue[T any] struct {
	ch     chan T
	mu     sync.Mutex
	closed bool
}

// NewChanQueue returns a ChanQueue with the given capacity.
func NewChanQueue[T any](capacity int) *ChanQueue[T] {
	return &ChanQueue[T]{ch: make(chan T, capacity)}
}

// TryPush implements Queue.
func (q *ChanQueue[T]) TryPush(v T) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false
	}
	select {
	case q.ch <- v:
		return true
	default:
		return false
	}
}

// Push implements Queue.
func (q *ChanQueue[T]) Push(v T) (ok bool) {
	defer func() {
		// A concurrent Close can race with the blocking send; treat a send
		// on a closed channel as "queue closed" rather than a crash.
		if recover() != nil {
			ok = false
		}
	}()
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return false
	}
	q.mu.Unlock()
	q.ch <- v
	return true
}

// TryPop implements Queue.
func (q *ChanQueue[T]) TryPop() (T, bool) {
	select {
	case v, ok := <-q.ch:
		return v, ok
	default:
		var zero T
		return zero, false
	}
}

// Pop implements Queue.
func (q *ChanQueue[T]) Pop() (T, bool) {
	v, ok := <-q.ch
	return v, ok
}

// Close implements Queue.
func (q *ChanQueue[T]) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if !q.closed {
		q.closed = true
		close(q.ch)
	}
}

// Len implements Queue.
func (q *ChanQueue[T]) Len() int { return len(q.ch) }

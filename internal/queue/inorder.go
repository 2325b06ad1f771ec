package queue

import (
	"sync"
)

// InOrder is the execution queue of Section 4.6: consensus on batches
// completes out of order, yet execution must follow sequence numbers.
//
// Instead of a scan-and-recheck loop or an expensive hash map, the paper
// associates a large set of QC logical queues with the execute-thread; the
// producer deposits the notice for sequence s into slot s mod QC, and the
// consumer blocks on exactly the slot of the next in-order sequence. Each
// slot is a one-deep channel, so the space cost matches a single queue of
// QC entries while the consumer never inspects out-of-order work.
//
// QC must exceed the maximum number of in-flight sequence numbers
// (2 × clients × requests-per-client in the paper's sizing) so that
// sequence s+QC can never be offered before s was consumed.
type InOrder[T any] struct {
	slots []chan T
	next  uint64
	mu    sync.Mutex
	done  chan struct{}
	once  sync.Once
}

// NewInOrder returns an InOrder buffer with qc slots that starts
// delivering at sequence number start.
func NewInOrder[T any](qc int, start uint64) *InOrder[T] {
	if qc < 1 {
		qc = 1
	}
	s := &InOrder[T]{
		slots: make([]chan T, qc),
		next:  start,
		done:  make(chan struct{}),
	}
	for i := range s.slots {
		s.slots[i] = make(chan T, 1)
	}
	return s
}

// Offer deposits the item for sequence seq. It blocks only if sequence
// seq-QC has not been consumed yet, which a correctly sized buffer makes
// impossible. It reports false if the buffer was closed.
func (o *InOrder[T]) Offer(seq uint64, v T) bool {
	slot := o.slots[seq%uint64(len(o.slots))]
	select {
	case slot <- v:
		return true
	case <-o.done:
		return false
	}
}

// Next blocks until the item for the next in-order sequence number arrives
// and returns it together with its sequence number. It reports false after
// Close.
func (o *InOrder[T]) Next() (uint64, T, bool) {
	seq, v, w := o.NextOr(nil)
	return seq, v, w == WokeItem
}

// Woke says what ended a NextOr wait.
type Woke int

const (
	// WokeItem: the next in-order item arrived and is returned.
	WokeItem Woke = iota
	// WokeAlt: the caller's channel became ready first.
	WokeAlt
	// WokeClosed: the buffer was closed with the next item not offered.
	WokeClosed
)

// NextOr is Next with a second thing to wait for: it returns the next
// in-order item, or WokeAlt as soon as alt is ready (closed, or sent to)
// while that item has not been offered. An item that is already there wins
// over a ready alt, so with alt closed NextOr is a non-blocking poll; a nil
// alt never fires. The pipelined execute coordinator passes its oldest
// in-flight batch's barrier, staging when new work is there and retiring
// when the barrier falls, and blocking on neither while the other is ready.
// Like Next it is for a single consumer.
func (o *InOrder[T]) NextOr(alt <-chan struct{}) (uint64, T, Woke) {
	o.mu.Lock()
	seq := o.next
	slot := o.slots[seq%uint64(len(o.slots))]
	o.mu.Unlock()
	var v T
	select {
	case v = <-slot:
	default:
		select {
		case v = <-slot:
		case <-alt:
			return 0, v, WokeAlt
		case <-o.done:
			// Drain race: an Offer may have landed just before Close.
			select {
			case v = <-slot:
			default:
				return 0, v, WokeClosed
			}
		}
	}
	o.mu.Lock()
	o.next = seq + 1
	o.mu.Unlock()
	return seq, v, WokeItem
}

// NextSeq returns the sequence number Next will deliver.
func (o *InOrder[T]) NextSeq() uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.next
}

// Close releases blocked producers and consumers.
func (o *InOrder[T]) Close() { o.once.Do(func() { close(o.done) }) }

// MapReorder is the hash-map alternative the paper rejects ("collision
// resistant hash functions are expensive to compute"): a mutex-protected
// map keyed by sequence number with a condition variable. It is kept as
// the ablation baseline for InOrder.
type MapReorder[T any] struct {
	mu      sync.Mutex
	cond    sync.Cond
	pending map[uint64]T
	next    uint64
	closed  bool
}

// NewMapReorder returns a MapReorder starting at sequence start.
func NewMapReorder[T any](start uint64) *MapReorder[T] {
	m := &MapReorder[T]{pending: make(map[uint64]T), next: start}
	m.cond.L = &m.mu
	return m
}

// Offer deposits the item for sequence seq.
func (m *MapReorder[T]) Offer(seq uint64, v T) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return false
	}
	m.pending[seq] = v
	if seq == m.next {
		m.cond.Broadcast()
	}
	return true
}

// Next blocks until the next in-order item arrives.
func (m *MapReorder[T]) Next() (uint64, T, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		if v, ok := m.pending[m.next]; ok {
			seq := m.next
			delete(m.pending, seq)
			m.next = seq + 1
			return seq, v, true
		}
		if m.closed {
			var zero T
			return 0, zero, false
		}
		m.cond.Wait()
	}
}

// Close releases blocked consumers.
func (m *MapReorder[T]) Close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	m.cond.Broadcast()
}

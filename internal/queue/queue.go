// Package queue holds the replica pipeline's two queue kinds: Handoff, the
// named FIFO every stage boundary is (the paper's common queue in front of
// the batch-threads among them, Section 4.3), and the in-order execution
// queue of Section 4.6, whose contract is sequence order, not FIFO.
package queue

// Handoff is a named, bounded FIFO joining two pipeline stages: a buffered
// channel and the few operations a stage boundary needs. Producers Push (or
// TryPush, where a full queue should shed rather than wait); consumers
// receive from C, with range or in a select. The owner closes it once every
// producer is done, and consumers then drain what is queued. Pushing and
// receiving a value allocates nothing.
type Handoff[T any] struct {
	name string
	c    chan T
}

// NewHandoff returns an empty Handoff holding up to capacity items.
func NewHandoff[T any](name string, capacity int) *Handoff[T] {
	return &Handoff[T]{name: name, c: make(chan T, capacity)}
}

// Push enqueues v, waiting while the queue is full. It gives up and reports
// false once stop is closed; with a nil stop it waits as long as it takes,
// for a boundary whose consumer outlives its producer.
func (h *Handoff[T]) Push(v T, stop <-chan struct{}) bool {
	if h.TryPush(v) {
		return true // a queue with room, the common case, takes no select
	}
	select {
	case h.c <- v:
		return true
	case <-stop:
		return false
	}
}

// TryPush enqueues v if there is room and reports whether there was.
func (h *Handoff[T]) TryPush(v T) bool {
	select {
	case h.c <- v:
		return true
	default:
		return false
	}
}

// C is the receive side. It is closed by Close, after what was queued.
func (h *Handoff[T]) C() <-chan T { return h.c }

// Close ends the queue. Only the owner calls it, once, after every producer
// has returned: a Push after Close panics.
func (h *Handoff[T]) Close() { close(h.c) }

// Name is the queue's name.
func (h *Handoff[T]) Name() string { return h.name }

// Len is the number of items queued.
func (h *Handoff[T]) Len() int { return len(h.c) }

// Cap is the queue's fixed capacity.
func (h *Handoff[T]) Cap() int { return cap(h.c) }

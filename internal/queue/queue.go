// Package queue implements the bounded send queue that sits on top of the
// MAC layer in the paper's stack (parameter Q_max in Table I). Packets that
// arrive while the queue is full are dropped and counted — those drops are
// the PLR_queue component of the paper's packet loss rate (Sec. VII).
//
// The queue is a generic ring-buffer FIFO with occupancy statistics. It is
// not safe for concurrent use; the discrete-event simulator is single
// threaded by design.
package queue

import "errors"

// ErrEmpty is returned by Pop on an empty queue.
var ErrEmpty = errors.New("queue: empty")

// Stats summarises the queue's lifetime behaviour.
type Stats struct {
	Enqueued     int // accepted packets
	Dropped      int // rejected because the queue was full
	Dequeued     int // packets handed to the MAC
	MaxOccupancy int // high-water mark including the in-service slot semantics of the caller
}

// FIFO is a bounded first-in first-out queue.
type FIFO[T any] struct {
	buf   []T
	head  int
	count int
	max   int
	stats Stats
}

// NewFIFO creates a queue holding at most capacity elements. Capacity must
// be at least 1 (the paper's Q_max = 1 means "only the packet in service").
func NewFIFO[T any](capacity int) (*FIFO[T], error) {
	if capacity < 1 {
		return nil, errors.New("queue: capacity must be >= 1")
	}
	return &FIFO[T]{buf: make([]T, capacity), max: capacity}, nil
}

// Len returns the current occupancy.
func (q *FIFO[T]) Len() int { return q.count }

// Empty reports whether the queue holds no elements.
func (q *FIFO[T]) Empty() bool { return q.count == 0 }

// Push enqueues v. It returns false — and counts a drop — if the queue is
// full.
func (q *FIFO[T]) Push(v T) bool {
	if q.count == q.max {
		q.stats.Dropped++
		return false
	}
	q.buf[(q.head+q.count)%q.max] = v
	q.count++
	q.stats.Enqueued++
	if q.count > q.stats.MaxOccupancy {
		q.stats.MaxOccupancy = q.count
	}
	return true
}

// Pop dequeues the oldest element.
func (q *FIFO[T]) Pop() (T, error) {
	var zero T
	if q.count == 0 {
		return zero, ErrEmpty
	}
	v := q.buf[q.head]
	q.buf[q.head] = zero // release references for GC
	q.head = (q.head + 1) % q.max
	q.count--
	q.stats.Dequeued++
	return v, nil
}

// Stats returns a copy of the lifetime statistics.
func (q *FIFO[T]) Stats() Stats { return q.stats }

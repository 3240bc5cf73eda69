package sim

import (
	"fmt"
	"slices"
	"strings"
	"time"
)

// Semaphore is a FIFO counting semaphore for simulated tasks. It models a
// pool of identical resources such as the CPU cores of a node. Waiters are
// served strictly in arrival order (hand-off semantics: a released unit goes
// directly to the oldest waiter). The wait queue is a growable ring buffer —
// dequeuing the oldest waiter is O(1) with no re-slicing churn — and
// membership is tested in O(1) through Task.waitingSem instead of a scan.
type Semaphore struct {
	park  Reason // park reason of a waiter: "semaphore " and the semaphore's name
	total int
	avail int
	ring  []*Task // capacity is always a power of two
	head  int     // index of the oldest waiter
	count int     // queued waiters
}

// Init makes s a semaphore with n units. park is what a waiter is parked on,
// "semaphore " followed by s's name, formatted only if a diagnostic prints it.
func (s *Semaphore) Init(park Reason, n int) {
	*s = Semaphore{park: park, total: n, avail: n}
	if n < 1 {
		panic(fmt.Sprintf("sim: semaphore %q must have at least one unit, got %d", s.name(), n))
	}
}

func (s *Semaphore) name() string { return strings.TrimPrefix(s.park.String(), "semaphore ") }

// pushWaiter appends t to the tail of the ring, growing it when full.
func (s *Semaphore) pushWaiter(t *Task) {
	if s.count == len(s.ring) {
		grown := make([]*Task, max(4, 2*len(s.ring)))
		for i := 0; i < s.count; i++ {
			grown[i] = s.ring[(s.head+i)&(len(s.ring)-1)]
		}
		s.ring = grown
		s.head = 0
	}
	s.ring[(s.head+s.count)&(len(s.ring)-1)] = t
	s.count++
}

// popWaiter removes and returns the oldest waiter.
func (s *Semaphore) popWaiter() *Task {
	t := s.ring[s.head]
	s.ring[s.head] = nil
	s.head = (s.head + 1) & (len(s.ring) - 1)
	s.count--
	return t
}

// Acquire takes one unit, blocking the task in FIFO order if none are free.
func (s *Semaphore) Acquire(t *Task) {
	if s.avail > 0 && s.count == 0 {
		s.avail--
		return
	}
	s.pushWaiter(t)
	t.waitingSem = s
	for {
		t.ParkOn(s.park)
		// A hand-off clears waitingSem before the wake; a stray token does
		// not, so a spurious wake loops back into Park without losing the
		// task's place in line.
		if t.waitingSem != s {
			return
		}
	}
}

// TryAcquire takes a unit without blocking; it reports whether it succeeded.
func (s *Semaphore) TryAcquire() bool {
	if s.avail > 0 && s.count == 0 {
		s.avail--
		return true
	}
	return false
}

// Release returns one unit. If tasks are waiting, the unit is handed to the
// oldest waiter without becoming generally available.
func (s *Semaphore) Release() {
	if s.count > 0 {
		w := s.popWaiter()
		w.waitingSem = nil
		w.Unpark()
		return
	}
	if s.avail == s.total {
		panic(fmt.Sprintf("sim: semaphore %q released above capacity", s.name()))
	}
	s.avail++
}

// Waiting reports how many tasks are queued.
func (s *Semaphore) Waiting() int { return s.count }

// Available reports how many units are free.
func (s *Semaphore) Available() int { return s.avail }

// Bus models a shared FIFO bandwidth server, e.g. a node's memory channels
// or a network link. Transfers are serialized: a transfer arriving while the
// bus is busy starts when the bus frees up. An optional congestion factor
// models the super-linear slowdown of real memory controllers under
// multi-stream interference (bank conflicts, row-buffer misses): each
// concurrent outstanding transfer inflates service time by alpha. Only such a
// bus counts its outstanding transfers, with an event at the end of each; one
// without a congestion factor (a link) is its free-at time and nothing else.
type Bus struct {
	eng        *Engine
	bytesPerS  float64
	congestion float64
	active     int // outstanding transfers, counted while congestion > 0
	freeAt     time.Duration
	bytes      uint64
}

// Init makes b a bus with the given bandwidth in bytes per second; name is
// formatted only if a panic prints it.
func (b *Bus) Init(eng *Engine, name Reason, bytesPerSecond float64) {
	if bytesPerSecond <= 0 {
		panic(fmt.Sprintf("sim: bus %q must have positive bandwidth", name))
	}
	*b = Bus{eng: eng, bytesPerS: bytesPerSecond}
}

// busRelease is a bus as the event that ends one of its transfers; there is
// nothing to allocate per transfer.
type busRelease Bus

func (r *busRelease) RunEvent() { r.active-- }

// SetCongestion sets the per-concurrent-transfer service-time inflation
// factor (0 disables congestion modeling). Set it before the first transfer:
// transfers under way are not counted after the fact.
func (b *Bus) SetCongestion(alpha float64) { b.congestion = alpha }

// Occupy reserves the bus for transferring n bytes and returns the virtual
// time at which the transfer completes, without blocking the caller. Use it
// from event context (e.g. a message handler).
func (b *Bus) Occupy(n int) time.Duration {
	now := b.eng.Now()
	start := now
	if b.freeAt > start {
		start = b.freeAt
	}
	d := b.duration(n)
	if d == 0 {
		return start
	}
	if b.congestion > 0 {
		d += time.Duration(float64(d) * b.congestion * float64(b.active))
		b.active++
		b.eng.AfterRun(start+d-now, (*busRelease)(b))
	}
	finish := start + d
	b.freeAt = finish
	b.bytes += uint64(n)
	return finish
}

// Transfer blocks the task until n bytes have moved across the bus.
func (b *Bus) Transfer(t *Task, n int) {
	t.SleepUntil(b.Occupy(n))
}

// Bytes reports the cumulative bytes transferred.
func (b *Bus) Bytes() uint64 { return b.bytes }

func (b *Bus) duration(n int) time.Duration {
	if n <= 0 {
		return 0
	}
	return time.Duration(float64(n) / b.bytesPerS * float64(time.Second))
}

// Mailbox is an unbounded FIFO queue connecting simulation participants.
// Any number of tasks may block in Recv; senders never block.
type Mailbox[T any] struct {
	name  string
	park  string // park reason of a receiver
	queue []T
	recvQ []*Task
}

// NewMailbox creates an empty mailbox.
func NewMailbox[T any](name string) *Mailbox[T] {
	return &Mailbox[T]{name: name, park: "mailbox " + name}
}

// Send enqueues v and wakes the oldest blocked receiver, if any. It may be
// called from event context or task context.
func (m *Mailbox[T]) Send(v T) {
	m.queue = append(m.queue, v)
	if len(m.recvQ) > 0 {
		PopFront(&m.recvQ).Unpark()
	}
}

// Recv dequeues the oldest message, blocking the task until one is available.
func (m *Mailbox[T]) Recv(t *Task) T {
	for len(m.queue) == 0 {
		m.recvQ = append(m.recvQ, t)
		t.Park(m.park)
		m.dropReceiver(t)
	}
	return PopFront(&m.queue)
}

// PopFront removes and returns the first element of the FIFO queue *q, and
// zeroes the slot it leaves so that the backing array does not keep the
// element alive until the slot is overwritten.
func PopFront[T any](q *[]T) T {
	var zero T
	v := (*q)[0]
	(*q)[0] = zero
	*q = (*q)[1:]
	return v
}

// Len reports the number of queued messages.
func (m *Mailbox[T]) Len() int { return len(m.queue) }

func (m *Mailbox[T]) dropReceiver(t *Task) {
	for i, r := range m.recvQ {
		if r == t {
			m.recvQ = slices.Delete(m.recvQ, i, i+1)
			return
		}
	}
}

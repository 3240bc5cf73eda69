// Package futex implements the origin-side futex wait queues DeX relies on
// for distributed thread synchronization (§III-A): every synchronization
// primitive in the process compiles down to futex waits and wakes, which are
// delegated to the origin node and handled there against a single table —
// exactly as a local futex call would be.
package futex

import (
	"sort"

	"dex/internal/mem"
	"dex/internal/sim"
)

// Table holds per-address wait queues. It is keyed by the futex word's
// virtual address and serves one process.
type Table struct {
	queues map[mem.Addr][]*Waiter
}

// NewTable returns an empty futex table.
func NewTable() *Table {
	return &Table{queues: make(map[mem.Addr][]*Waiter)}
}

// Waiter is one blocked futex waiter.
type Waiter struct {
	table   *Table
	addr    mem.Addr
	task    *sim.Task
	woken   bool
	expired bool
}

// Enqueue registers t as a waiter on addr, after the caller's atomic value
// check; Block then parks it.
func (tb *Table) Enqueue(t *sim.Task, addr mem.Addr) *Waiter {
	w := &Waiter{table: tb, addr: addr, task: t}
	tb.queues[addr] = append(tb.queues[addr], w)
	return w
}

// Block parks the task until a Wake targets this waiter. Spurious unparks
// are absorbed.
func (w *Waiter) Block() {
	for !w.woken {
		w.task.ParkOn(sim.ReasonHex("futex wait ", uint64(w.addr)))
	}
}

// Expire removes the waiter from its queue and unparks its task without a
// matching Wake — used when the waiting thread's node is declared dead and
// the delegated wait must unwind. No-op if the waiter was already woken.
func (w *Waiter) Expire() {
	if w.woken {
		return
	}
	w.woken = true
	w.expired = true
	w.table.remove(w)
	w.task.Unpark()
}

// Expired reports whether the wait ended by expiry rather than a Wake.
func (w *Waiter) Expired() bool { return w.expired }

// ExpireAll expires every queued waiter, in address order so the resulting
// wakeups are deterministic. Used when a node crash poisons the process's
// futex synchronization: any waiter could be waiting on a dead peer.
func (tb *Table) ExpireAll() {
	addrs := make([]mem.Addr, 0, len(tb.queues))
	for a := range tb.queues {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		// Expire mutates the queue; copy first.
		q := append([]*Waiter(nil), tb.queues[a]...)
		for _, w := range q {
			w.Expire()
		}
	}
}

// Wake wakes up to n waiters queued on addr in FIFO order and returns how
// many it woke.
func (tb *Table) Wake(addr mem.Addr, n int) int {
	q := tb.queues[addr]
	woken := 0
	for woken < n && len(q) > 0 {
		w := q[0]
		q = q[1:]
		w.woken = true
		w.task.Unpark()
		woken++
	}
	if len(q) == 0 {
		delete(tb.queues, addr)
	} else {
		tb.queues[addr] = q
	}
	return woken
}

// Waiting reports how many waiters are queued on addr.
func (tb *Table) Waiting(addr mem.Addr) int { return len(tb.queues[addr]) }

func (tb *Table) remove(w *Waiter) {
	q := tb.queues[w.addr]
	for i, x := range q {
		if x == w {
			q = append(q[:i], q[i+1:]...)
			break
		}
	}
	if len(q) == 0 {
		delete(tb.queues, w.addr)
	} else {
		tb.queues[w.addr] = q
	}
}

package dex

import (
	"fmt"
)

// This file provides the pthread-style synchronization primitives DeX-ported
// applications use unchanged (§III-A of the paper): each primitive compiles
// down to one or more futex operations on a word in the shared address
// space. The atomic fast paths acquire exclusive page ownership through the
// consistency protocol; the slow paths delegate FUTEX_WAIT / FUTEX_WAKE to
// the origin, where they run against the single per-process futex table.
//
// Because the futex word lives in ordinary shared memory, a primitive
// co-located with hot data on the same page causes false sharing, exactly
// like in the paper — which is why constructors allocate a page-aligned word
// by default and an *At variant exists for embedding into app data.

// Mutex is a futex-based mutual-exclusion lock usable from any node.
// The word holds 0 (unlocked), 1 (locked), or 2 (locked, waiters).
type Mutex struct {
	addr Addr
}

// NewMutex allocates a mutex in its own page-aligned mapping (avoiding
// false sharing with application data).
func NewMutex(t *Thread) (*Mutex, error) {
	addr, err := t.Mmap(PageSize, ProtRead|ProtWrite, "mutex")
	if err != nil {
		return nil, fmt.Errorf("dex: allocate mutex: %w", err)
	}
	return &Mutex{addr: addr}, nil
}

// Addr returns the futex word's address.
func (m *Mutex) Addr() Addr { return m.addr }

// Lock acquires the mutex, blocking through the origin's futex table under
// contention.
func (m *Mutex) Lock(t *Thread) error {
	if ok, err := t.CompareAndSwapUint32(m.addr, 0, 1); err != nil || ok {
		return err
	}
	for {
		// Announce contention: 1 -> 2 (or grab it if it freed up: 0 -> 2).
		v, err := t.ReadUint32(m.addr)
		if err != nil {
			return err
		}
		if v == 0 {
			ok, err := t.CompareAndSwapUint32(m.addr, 0, 2)
			if err != nil {
				return err
			}
			if ok {
				return nil
			}
			continue
		}
		if v == 1 {
			if _, err := t.CompareAndSwapUint32(m.addr, 1, 2); err != nil {
				return err
			}
			continue
		}
		if _, err := t.FutexWait(m.addr, 2); err != nil {
			return err
		}
	}
}

// Unlock releases the mutex, waking one waiter if any.
func (m *Mutex) Unlock(t *Thread) error {
	for {
		v, err := t.ReadUint32(m.addr)
		if err != nil {
			return err
		}
		if v == 0 {
			return fmt.Errorf("dex: unlock of unlocked mutex at %v", m.addr)
		}
		ok, err := t.CompareAndSwapUint32(m.addr, v, 0)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		if v == 2 {
			if _, err := t.FutexWake(m.addr, 1); err != nil {
				return err
			}
		}
		return nil
	}
}

// Barrier is a reusable futex-based barrier for a fixed number of threads.
type Barrier struct {
	n     uint64
	count Addr // 8-byte arrival counter
	gen   Addr // 4-byte generation word (the futex word)
}

// NewBarrier allocates a barrier for n threads in its own page.
func NewBarrier(t *Thread, n int) (*Barrier, error) {
	if n < 1 {
		return nil, fmt.Errorf("dex: barrier needs at least one participant, got %d", n)
	}
	addr, err := t.Mmap(PageSize, ProtRead|ProtWrite, "barrier")
	if err != nil {
		return nil, fmt.Errorf("dex: allocate barrier: %w", err)
	}
	return &Barrier{n: uint64(n), count: addr, gen: addr + 8}, nil
}

// Wait blocks until all n participants have arrived, then releases them and
// resets for the next round.
func (b *Barrier) Wait(t *Thread) error {
	gen, err := t.ReadUint32(b.gen)
	if err != nil {
		return err
	}
	arrived, err := t.AddUint64(b.count, 1)
	if err != nil {
		return err
	}
	if arrived == b.n {
		// Last arrival: reset the counter, advance the generation, wake
		// everyone.
		if err := t.WriteUint64(b.count, 0); err != nil {
			return err
		}
		if err := t.WriteUint32(b.gen, gen+1); err != nil {
			return err
		}
		_, err := t.FutexWake(b.gen, int(b.n))
		return err
	}
	for {
		cur, err := t.ReadUint32(b.gen)
		if err != nil {
			return err
		}
		if cur != gen {
			return nil
		}
		if _, err := t.FutexWait(b.gen, gen); err != nil {
			return err
		}
	}
}

// PhasedBarrier is a crash-tolerant barrier for one coordinator and n
// participants, built for restartable threads. Unlike Barrier, whose shared
// arrival counter makes a replayed Wait double-count, every word here has a
// single writer and carries an absolute phase number, so re-executing any
// step after a checkpoint restart is harmless: writes are guarded
// ("only advance"), rewrites land the same value, and wakes at worst wake a
// waiter that re-checks and parks again.
//
// Layout: page 0 holds the coordinator's 4-byte generation word; pages
// 1..n hold one 4-byte arrival word per participant. The generation word
// lives at the origin with the coordinator, so it is never lost to a node
// crash; a participant's arrival word is republished by that participant's
// own restart.
type PhasedBarrier struct {
	n   int
	gen Addr // coordinator-owned generation word (page 0)
}

// NewPhasedBarrier allocates a phased barrier for one coordinator plus n
// participants, one page per word to keep every word single-writer without
// false sharing.
func NewPhasedBarrier(t *Thread, n int) (*PhasedBarrier, error) {
	if n < 1 {
		return nil, fmt.Errorf("dex: phased barrier needs at least one participant, got %d", n)
	}
	addr, err := t.Mmap(uint64(n+1)*PageSize, ProtRead|ProtWrite, "phased-barrier")
	if err != nil {
		return nil, fmt.Errorf("dex: allocate phased barrier: %w", err)
	}
	return &PhasedBarrier{n: n, gen: addr}, nil
}

// word returns participant i's arrival word.
func (b *PhasedBarrier) word(i int) Addr {
	return b.gen + Addr(uint64(i+1)*PageSize)
}

// Arrive publishes participant i's arrival at phase (0-based) and blocks
// until the coordinator releases that phase. Safe to replay: the arrival
// write is skipped once the word already covers the phase, and the release
// wait is level-triggered on the generation word.
func (b *PhasedBarrier) Arrive(t *Thread, i, phase int) error {
	want := uint32(phase + 1)
	v, err := t.ReadUint32(b.word(i))
	if err != nil {
		return err
	}
	if v < want {
		if err := t.WriteUint32(b.word(i), want); err != nil {
			return err
		}
		if _, err := t.FutexWake(b.word(i), 1); err != nil {
			return err
		}
	}
	for {
		g, err := t.ReadUint32(b.gen)
		if err != nil {
			return err
		}
		if g >= want {
			return nil
		}
		if _, err := t.FutexWait(b.gen, g); err != nil {
			return err
		}
	}
}

// Collect blocks the coordinator until participant i has arrived at phase.
// Call it for each participant before Release.
func (b *PhasedBarrier) Collect(t *Thread, i, phase int) error {
	want := uint32(phase + 1)
	for {
		v, err := t.ReadUint32(b.word(i))
		if err != nil {
			return err
		}
		if v >= want {
			return nil
		}
		if _, err := t.FutexWait(b.word(i), v); err != nil {
			return err
		}
	}
}

// Release opens phase's gate, letting every participant parked in Arrive
// proceed. Idempotent: a replayed Release of an already-open phase neither
// rolls the generation back nor wakes anyone spuriously (the woken waiters
// re-check the word).
func (b *PhasedBarrier) Release(t *Thread, phase int) error {
	want := uint32(phase + 1)
	g, err := t.ReadUint32(b.gen)
	if err != nil {
		return err
	}
	if g < want {
		if err := t.WriteUint32(b.gen, want); err != nil {
			return err
		}
	}
	_, err = t.FutexWake(b.gen, b.n)
	return err
}

// WaitGroup counts outstanding work, like sync.WaitGroup, across nodes.
type WaitGroup struct {
	addr Addr // 4-byte counter (the futex word)
}

// NewWaitGroup allocates a wait group in its own page.
func NewWaitGroup(t *Thread) (*WaitGroup, error) {
	addr, err := t.Mmap(PageSize, ProtRead|ProtWrite, "waitgroup")
	if err != nil {
		return nil, fmt.Errorf("dex: allocate waitgroup: %w", err)
	}
	return &WaitGroup{addr: addr}, nil
}

// Add adds delta (which may be negative) to the counter; at zero, waiters
// are released.
func (wg *WaitGroup) Add(t *Thread, delta int) error {
	for {
		v, err := t.ReadUint32(wg.addr)
		if err != nil {
			return err
		}
		nv := int64(int32(v)) + int64(delta)
		if nv < 0 {
			return fmt.Errorf("dex: negative waitgroup counter at %v", wg.addr)
		}
		ok, err := t.CompareAndSwapUint32(wg.addr, v, uint32(nv))
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		if nv == 0 {
			_, err := t.FutexWake(wg.addr, 1<<30)
			return err
		}
		return nil
	}
}

// Done decrements the counter by one.
func (wg *WaitGroup) Done(t *Thread) error { return wg.Add(t, -1) }

// Wait blocks until the counter reaches zero.
func (wg *WaitGroup) Wait(t *Thread) error {
	for {
		v, err := t.ReadUint32(wg.addr)
		if err != nil {
			return err
		}
		if v == 0 {
			return nil
		}
		if _, err := t.FutexWait(wg.addr, v); err != nil {
			return err
		}
	}
}

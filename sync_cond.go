package dex

import "fmt"

// Cond is a futex-based condition variable, the pthread_cond analogue: a
// sequence word in shared memory that waiters sleep on through the origin's
// futex table, paired with a Mutex protecting the application's predicate.
type Cond struct {
	mu  *Mutex
	seq Addr // 4-byte wait generation word
}

// NewCond allocates a condition variable bound to mu, with its futex word
// in its own page.
func NewCond(t *Thread, mu *Mutex) (*Cond, error) {
	addr, err := t.Mmap(PageSize, ProtRead|ProtWrite, "cond")
	if err != nil {
		return nil, fmt.Errorf("dex: allocate cond: %w", err)
	}
	return &Cond{mu: mu, seq: addr}, nil
}

// Wait atomically releases the mutex and blocks until Signal or Broadcast,
// then reacquires the mutex before returning. As with pthreads, callers
// must re-check their predicate in a loop.
func (c *Cond) Wait(t *Thread) error {
	seq, err := t.ReadUint32(c.seq)
	if err != nil {
		return err
	}
	if err := c.mu.Unlock(t); err != nil {
		return err
	}
	// Sleep only if no wakeup advanced the generation since we sampled it.
	if _, err := t.FutexWait(c.seq, seq); err != nil {
		return err
	}
	return c.mu.Lock(t)
}

// Signal wakes one waiter. The caller conventionally holds the mutex.
func (c *Cond) Signal(t *Thread) error {
	if err := c.bump(t); err != nil {
		return err
	}
	_, err := t.FutexWake(c.seq, 1)
	return err
}

// Broadcast wakes every waiter.
func (c *Cond) Broadcast(t *Thread) error {
	if err := c.bump(t); err != nil {
		return err
	}
	_, err := t.FutexWake(c.seq, 1<<30)
	return err
}

func (c *Cond) bump(t *Thread) error {
	v, err := t.ReadUint32(c.seq)
	if err != nil {
		return err
	}
	return t.WriteUint32(c.seq, v+1)
}

// Semaphore is a futex-based counting semaphore (sem_t): the word holds the
// available count.
type Semaphore struct {
	addr Addr
}

// NewSemaphore allocates a semaphore with an initial count in its own page.
func NewSemaphore(t *Thread, initial int) (*Semaphore, error) {
	if initial < 0 {
		return nil, fmt.Errorf("dex: negative semaphore count %d", initial)
	}
	addr, err := t.Mmap(PageSize, ProtRead|ProtWrite, "semaphore")
	if err != nil {
		return nil, fmt.Errorf("dex: allocate semaphore: %w", err)
	}
	if err := t.WriteUint32(addr, uint32(initial)); err != nil {
		return nil, err
	}
	return &Semaphore{addr: addr}, nil
}

// Acquire decrements the count, blocking while it is zero (sem_wait).
func (s *Semaphore) Acquire(t *Thread) error {
	for {
		v, err := t.ReadUint32(s.addr)
		if err != nil {
			return err
		}
		if v == 0 {
			if _, err := t.FutexWait(s.addr, 0); err != nil {
				return err
			}
			continue
		}
		ok, err := t.CompareAndSwapUint32(s.addr, v, v-1)
		if err != nil {
			return err
		}
		if ok {
			return nil
		}
	}
}

// TryAcquire decrements the count if it is positive, reporting success.
func (s *Semaphore) TryAcquire(t *Thread) (bool, error) {
	v, err := t.ReadUint32(s.addr)
	if err != nil || v == 0 {
		return false, err
	}
	return t.CompareAndSwapUint32(s.addr, v, v-1)
}

// Release increments the count and wakes one waiter (sem_post).
func (s *Semaphore) Release(t *Thread) error {
	for {
		v, err := t.ReadUint32(s.addr)
		if err != nil {
			return err
		}
		ok, err := t.CompareAndSwapUint32(s.addr, v, v+1)
		if err != nil {
			return err
		}
		if ok {
			break
		}
	}
	_, err := t.FutexWake(s.addr, 1)
	return err
}

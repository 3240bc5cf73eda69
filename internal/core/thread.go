package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"time"

	"dex/internal/dsm"
	"dex/internal/futex"
	"dex/internal/mem"
	"dex/internal/obs"
	"dex/internal/sim"
)

// Thread is one execution context of a DeX process. It starts at the
// process origin and may relocate itself to any node at any time with
// Migrate. All methods must be called from the thread's own execution (the
// function passed to Spawn / NewProcess).
type Thread struct {
	proc *Process
	id   int
	node int
	task *sim.Task
	site string
	// body is what the thread runs unless it is restartable.
	body func(*Thread) error

	// pending batches the cost of small local accesses so that hot
	// word-granularity loops do not create one simulator event per load or
	// store; it is flushed once it exceeds a couple of microseconds.
	pending time.Duration

	// vma is the region checkAccess last found, good for as long as the set it
	// came from keeps the generation it had then.
	vma    mem.VMA
	vmaSet *mem.VMASet
	vmaGen uint64

	// idle is PollIdle's state, nil until the thread first polls.
	idle *idlePoll

	done    bool
	joiners []*sim.Task

	// crashErr is set when the thread's node is declared dead: the thread
	// did not finish — it was lost — and Join surfaces this error instead
	// of hanging.
	crashErr error
	// futexWaiter is the thread's origin-side futex queue entry while a
	// delegated FutexWait is blocked, so node death can unwind it.
	futexWaiter *futex.Waiter

	// restartable, when non-nil, is the thread's restart body (set by
	// SpawnRestartable): if the thread's node is declared dead, the thread
	// is re-spawned at the origin from its latest checkpoint instead of
	// surfacing a crash error.
	restartable func(*Thread, []byte) error
	// blob is the checkpoint blob restartable last started from.
	blob []byte
	// ckpt is the latest state snapshot taken by Checkpoint; the zero value
	// restarts the body from the top.
	ckpt checkpoint
	// restarts counts how many times this thread has been re-spawned.
	restarts int
}

// checkpoint is one quiescent-point snapshot of a restartable thread: the
// caller's register blob plus copies of every page resident at the
// thread's node when the snapshot was taken. Each Checkpoint brings it up to
// date in place.
type checkpoint struct {
	data  []byte
	pages dsm.Snapshot
}

// checkpointHook, when set (by tests only), is called by every Checkpoint
// with the number of pages it copied, right after the snapshot is brought up
// to date and before the thread next yields.
var checkpointHook func(th *Thread, copied int)

// smallAccess is the size threshold below which an access charges batched
// local cost instead of occupying the memory bus individually; smallFlush is
// the batched cost at which the thread sleeps it off.
const (
	smallAccess = 256
	smallFlush  = 2 * time.Microsecond
)

// smallCost is what one small local access of the given size is charged: a
// fixed per-access cost plus its bandwidth share.
func (th *Thread) smallCost(bytes int) time.Duration {
	bw := th.proc.m.params.MemBandwidth
	return 25*time.Nanosecond + time.Duration(float64(bytes)/bw*float64(time.Second))
}

// chargeSmall accounts for a small local access, batched to bound simulator
// events.
func (th *Thread) chargeSmall(bytes int) {
	th.pending += th.smallCost(bytes)
	if th.pending >= smallFlush {
		d := th.pending
		th.pending = 0
		th.task.Sleep(d)
	}
}

// ID returns the thread id within its process.
func (th *Thread) ID() int { return th.id }

// Node returns the node the thread currently executes on.
func (th *Thread) Node() int { return th.node }

// Process returns the owning process.
func (th *Thread) Process() *Process { return th.proc }

// Now returns the current virtual time.
func (th *Thread) Now() time.Duration { return th.task.Now() }

// Sleep suspends the thread for d of virtual time without occupying a
// core — a timer wait (nanosleep/epoll), not a busy spin. The serving
// layer uses it to pace open-loop request arrivals.
func (th *Thread) Sleep(d time.Duration) {
	if d > 0 {
		th.task.Sleep(d)
	}
}

// SleepUntil sleeps until the absolute virtual time at; a no-op if at is
// not in the future.
func (th *Thread) SleepUntil(at time.Duration) {
	if at > th.task.Now() {
		th.task.SleepUntil(at)
	}
}

// EmitSpan records an application-level span at the thread's current node,
// closing at the current virtual time, and feeds the same latency
// into the recorder's histogram under name. It is a no-op without an
// observer, and never perturbs the simulation either way — application
// code can emit spans unconditionally.
func (th *Thread) EmitSpan(cat, name string, start time.Duration, args ...obs.Arg) {
	rec := th.proc.m.params.Obs
	if rec == nil {
		return
	}
	// The recorder keeps the slice; a copy keeps args from escaping, so an
	// untraced call allocates nothing.
	rec.Span(cat, name, th.node, th.id, start, slices.Clone(args)...)
	rec.Observe(name, th.task.Now()-start)
}

// SetSite tags subsequent faults with a source-location label for the
// page-fault profiler (the paper's "memory address of the faulting
// instruction", §IV-A, resolved to a program location).
func (th *Thread) SetSite(site string) { th.site = site }

// Site returns the current profiling tag.
func (th *Thread) Site() string { return th.site }

func (th *Thread) ctx() dsm.Ctx {
	return dsm.Ctx{Node: th.node, Task: th.id, Site: th.site}
}

// Compute occupies one core of the current node for d of virtual time,
// queueing behind other runnable threads if all cores are busy.
func (th *Thread) Compute(d time.Duration) {
	if d > 0 {
		th.Work(d, 0)
	}
}

// Work models a computation phase touching local memory: d of CPU time on
// a core plus bytes of traffic on the node's shared memory bus. The bus is
// what saturates for memory-bound workloads when many cores stream at once.
func (th *Thread) Work(d time.Duration, bytes int) {
	node := th.proc.m.nodes[th.node]
	node.cores.Acquire(th.task)
	if d > 0 {
		th.task.Sleep(d)
	}
	node.cores.Release()
	if bytes > 0 {
		node.bus.Transfer(th.task, bytes)
	}
}

// Spawn creates a new thread at the origin running fn, like pthread_create.
// Threads can only be created at the origin (matching the paper's model
// where all threads of a process share that origin).
func (th *Thread) Spawn(fn func(*Thread) error) (*Thread, error) {
	if th.node != th.proc.origin {
		return nil, fmt.Errorf("%w: spawn from node %d", ErrNotAtOrigin, th.node)
	}
	th.Compute(spawnCost)
	return th.proc.newThread(fn), nil
}

// SpawnRestartable creates a thread like Spawn whose body can be restarted
// if the node executing it is declared dead: fn receives the blob passed to
// the thread's last Checkpoint (nil on first launch) and is re-spawned at
// the origin with the checkpointed pages restored. The body must be
// deterministic and idempotent when replayed from its last quiescent point
// — shared writes it re-issues must land the same bytes.
func (th *Thread) SpawnRestartable(fn func(*Thread, []byte) error) (*Thread, error) {
	nt, err := th.Spawn(nil)
	if err == nil {
		// The thread is restartable from birth: its task, not yet run, runs
		// fn in place of a body, and a node that dies before the body's first
		// Checkpoint restarts it from the beginning (nil blob, no pages to
		// restore).
		nt.restartable = fn
	}
	return nt, err
}

// Checkpoint captures the thread's execution state at a quiescent point: a
// caller-provided register blob (loop indices and the like) plus a copy of
// every page resident at the thread's node. If the node is later declared
// dead, a restartable thread is re-spawned at the origin from its latest
// checkpoint instead of surfacing a crash error. Checkpoint is a no-op
// without fault injection, so checkpoint-capable applications pay nothing
// on clean runs; under injection the snapshot's pages are charged to the
// node's memory bus like any other resident-set copy. The host copies only
// the pages that changed since the thread's last checkpoint
// (dsm.Manager.SnapshotPages); the charge is the whole resident set.
func (th *Thread) Checkpoint(data []byte) error {
	if th.proc.m.inj == nil {
		return nil
	}
	var start time.Duration
	if th.proc.m.params.Obs != nil {
		start = th.task.Now()
	}
	copied := th.proc.mgr.SnapshotPages(th.node, &th.ckpt.pages)
	th.ckpt.data = append(th.ckpt.data[:0], data...)
	if checkpointHook != nil {
		checkpointHook(th, copied)
	}
	pages := th.ckpt.pages.Len()
	if pages > 0 {
		th.proc.m.nodes[th.node].bus.Transfer(th.task, pages*mem.PageSize)
	}
	if rec := th.proc.m.params.Obs; rec != nil {
		// The span covers the resident-set copy including its bus transfer.
		rec.Span("chaos", "checkpoint", th.node, th.id, start,
			obs.Int("pages", int64(pages)), obs.Int("copied", int64(copied)))
	}
	return nil
}

// Restarts reports how many times this thread has been re-spawned from a
// checkpoint after its node was declared dead.
func (th *Thread) Restarts() int { return th.restarts }

// Join blocks until other finishes. It returns nil when other completed
// normally, or the attributable crash error when other was lost with its
// node under fault injection — a joiner never hangs on a dead thread.
//
// The joiner list is process-wide state written from whichever node the
// joiner runs on, so registration goes through a serialized global-lane
// commit; thread exits (also committed globally) then wake joiners from a
// context where every lane is quiescent.
func (th *Thread) Join(other *Thread) error {
	for !other.done {
		th.proc.m.commitGlobal(th.task, func() {
			if other.done {
				th.task.Unpark()
				return
			}
			other.joiners = append(other.joiners, th.task)
		})
		th.task.ParkOn(sim.ReasonNum("join t", uint64(other.id)))
	}
	return other.crashErr
}

// Mmap allocates a page-aligned region, delegating to the origin when the
// thread is remote (§III-A: all VMA manipulation happens at the origin).
func (th *Thread) Mmap(size uint64, prot mem.Prot, label string) (mem.Addr, error) {
	r := delegate(th.proc, th, "mmap", func(t *sim.Task) (r result[mem.Addr]) {
		r.v, r.err = th.proc.mmapAt(t, size, prot, label)
		return r
	})
	return r.v, r.err
}

// Munmap removes a mapping; the shrink is broadcast to all remote workers.
func (th *Thread) Munmap(addr mem.Addr, size uint64) error {
	return delegate(th.proc, th, "munmap", func(t *sim.Task) error {
		return th.proc.munmapAt(t, addr, size)
	})
}

// Mprotect changes a mapping's protection. Downgrades are broadcast
// eagerly; permissive changes propagate on demand.
func (th *Thread) Mprotect(addr mem.Addr, size uint64, prot mem.Prot) error {
	return delegate(th.proc, th, "mprotect", func(t *sim.Task) error {
		return th.proc.mprotectAt(t, addr, size, prot)
	})
}

// checkAccess validates [addr, addr+size) against the VMA view at the
// thread's node, performing on-demand VMA synchronization on a miss
// (§III-D). It returns ErrSegfault or ErrProtection on illegal access.
func (th *Thread) checkAccess(addr mem.Addr, size int, write bool) error {
	if size <= 0 {
		return nil
	}
	set := th.proc.vmaSetFor(th.node)
	a := addr
	end := addr + mem.Addr(size)
	for a < end {
		v, ok := th.findVMA(set, a)
		if !ok {
			if th.node == th.proc.origin {
				return fmt.Errorf("%w: %v", ErrSegfault, a)
			}
			// Remote cache miss: ask the origin whether the access is
			// legitimate.
			v, ok = th.proc.queryVMA(th, a)
			if !ok {
				return fmt.Errorf("%w: %v", ErrSegfault, a)
			}
		}
		if write && !v.Prot.CanWrite() {
			return fmt.Errorf("%w: write to %s VMA at %v", ErrProtection, v.Prot, a)
		}
		if !write && !v.Prot.CanRead() {
			return fmt.Errorf("%w: read from %s VMA at %v", ErrProtection, v.Prot, a)
		}
		a = v.End()
	}
	return nil
}

// findVMA is set.Find behind the thread's last answer: an access lands in the
// region of the one before it far more often than not, and the generation says
// when the set has changed under the cached copy (so does a move to another
// node, whose set is another).
func (th *Thread) findVMA(set *mem.VMASet, a mem.Addr) (mem.VMA, bool) {
	if th.vmaSet == set && th.vmaGen == set.Gen() && th.vma.Contains(a) {
		return th.vma, true
	}
	v, ok := set.Find(a)
	if ok {
		th.vma, th.vmaSet, th.vmaGen = v, set, set.Gen()
	}
	return v, ok
}

// Read copies len(buf) bytes from the shared address space at addr into
// buf, faulting pages in as needed through the consistency protocol.
func (th *Thread) Read(addr mem.Addr, buf []byte) error {
	return th.access(addr, len(buf), false, buf, nil, false)
}

// Write copies data into the shared address space at addr, acquiring
// exclusive page ownership as needed.
func (th *Thread) Write(addr mem.Addr, data []byte) error {
	return th.access(addr, len(data), true, data, nil, false)
}

// ReadFunc is Read of n bytes with no buffer: fn reads each page's frame slice
// src, bytes [off, off+len(src)) of the range, in address order; it keeps none.
func (th *Thread) ReadFunc(addr mem.Addr, n int, fn func(src []byte, off int)) error {
	return th.access(addr, n, false, nil, fn, false)
}

// WriteFunc is Write of n bytes with no buffer: fn fills each page's frame
// slice dst, bytes [off, off+len(dst)) of the range, in address order.
func (th *Thread) WriteFunc(addr mem.Addr, n int, fn func(dst []byte, off int)) error {
	return th.access(addr, n, true, nil, fn, false)
}

// access is the one page walk of Read, Write, their func forms and
// ReadReplicate: it hands each page's frame slice of the n bytes at addr to
// fn, or copies it to or from buf, then charges the range once — by its size,
// or under replicate by the pages it pulled in.
func (th *Thread) access(addr mem.Addr, n int, write bool, buf []byte, fn func([]byte, int), replicate bool) error {
	if err := th.checkAccess(addr, n, write); err != nil {
		return err
	}
	mgr, faulted := th.proc.mgr, 0
	for off := 0; off < n; {
		a := addr + mem.Addr(off)
		if replicate && mgr.Lookup(th.node, a.VPN(), false) == nil {
			faulted += mem.PageSize
		}
		frame := mgr.EnsurePage(th.task, th.ctx(), a, write).Frame[a.PageOff():]
		switch {
		case fn != nil:
			frame = frame[:min(len(frame), n-off)]
			fn(frame, off)
			off += len(frame)
		case write:
			off += copy(frame, buf[off:])
		default:
			off += copy(buf[off:], frame)
		}
	}
	switch {
	case !replicate && n <= smallAccess:
		th.chargeSmall(n)
	case !replicate:
		th.proc.m.nodes[th.node].bus.Transfer(th.task, n)
	case faulted == 0:
		th.chargeSmall(64)
	default:
		th.proc.m.nodes[th.node].bus.Transfer(th.task, faulted)
	}
	return nil
}

// ReadReplicate copies len(buf) bytes from addr like Read, but models the
// iterative re-read of a replicated working set: pages already present
// locally are treated as cache-resident and charge no bus traffic — only
// pages newly pulled in by the consistency protocol pay for their bytes.
// Use it for data re-scanned every iteration whose streaming cost the
// application accounts separately (e.g. via Work).
func (th *Thread) ReadReplicate(addr mem.Addr, buf []byte) error {
	return th.access(addr, len(buf), false, buf, nil, true)
}

// Prefetch is a data-access hint (§IV-A of the paper): it pulls read
// replicas of the pages spanning [addr, addr+size) to the current node in
// batched protocol requests, amortizing the per-page round trip a naive
// access pattern would pay. It is best effort — busy or already-present
// pages are skipped — and returns how many pages were actually replicated.
func (th *Thread) Prefetch(addr mem.Addr, size int) (int, error) {
	if size <= 0 {
		return 0, nil
	}
	if err := th.checkAccess(addr, size, false); err != nil {
		return 0, err
	}
	first := addr.VPN()
	last := (addr + mem.Addr(size) - 1).VPN()
	vpns := make([]uint64, 0, last-first+1)
	for vpn := first; vpn <= last; vpn++ {
		vpns = append(vpns, vpn)
	}
	return th.proc.mgr.Prefetch(th.task, th.ctx(), vpns)
}

// ReadUint64 loads one 64-bit word (little endian).
func (th *Thread) ReadUint64(addr mem.Addr) (uint64, error) {
	var buf [8]byte
	if err := th.Read(addr, buf[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(buf[:]), nil
}

// WriteUint64 stores one 64-bit word (little endian).
func (th *Thread) WriteUint64(addr mem.Addr, v uint64) error {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	return th.Write(addr, buf[:])
}

// ReadUint32 loads one 32-bit word (little endian).
func (th *Thread) ReadUint32(addr mem.Addr) (uint32, error) {
	var buf [4]byte
	if err := th.Read(addr, buf[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(buf[:]), nil
}

// WriteUint32 stores one 32-bit word (little endian).
func (th *Thread) WriteUint32(addr mem.Addr, v uint32) error {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], v)
	return th.Write(addr, buf[:])
}

// ReadFloat64 loads one float64.
func (th *Thread) ReadFloat64(addr mem.Addr) (float64, error) {
	v, err := th.ReadUint64(addr)
	return math.Float64frombits(v), err
}

// WriteFloat64 stores one float64.
func (th *Thread) WriteFloat64(addr mem.Addr, v float64) error {
	return th.WriteUint64(addr, math.Float64bits(v))
}

// CompareAndSwapUint32 atomically replaces the word at addr with new if it
// equals old, reporting whether the swap happened. Atomicity comes from
// exclusive page ownership: the page cannot be revoked between the load and
// the store.
func (th *Thread) CompareAndSwapUint32(addr mem.Addr, old, new uint32) (bool, error) {
	word, err := th.atomicWord(addr, 4, "CAS")
	if err != nil {
		return false, err
	}
	swapped := binary.LittleEndian.Uint32(word) == old
	if swapped {
		binary.LittleEndian.PutUint32(word, new)
	}
	th.chargeSmall(4) // after the mutation: chargeSmall may yield
	return swapped, nil
}

// AddUint64 atomically adds delta to the word at addr and returns the new
// value (exclusive ownership makes the read-modify-write atomic).
func (th *Thread) AddUint64(addr mem.Addr, delta uint64) (uint64, error) {
	word, err := th.atomicWord(addr, 8, "atomic add")
	if err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint64(word) + delta
	binary.LittleEndian.PutUint64(word, v)
	th.chargeSmall(8) // after the mutation: chargeSmall may yield
	return v, nil
}

// AddFloat64 atomically adds delta to the float64 at addr and returns the
// new value. Like AddUint64, exclusive page ownership makes the
// read-modify-write atomic.
func (th *Thread) AddFloat64(addr mem.Addr, delta float64) (float64, error) {
	word, err := th.atomicWord(addr, 8, "atomic add")
	if err != nil {
		return 0, err
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(word)) + delta
	binary.LittleEndian.PutUint64(word, math.Float64bits(v))
	th.chargeSmall(8) // after the mutation: chargeSmall may yield
	return v, nil
}

// atomicWord is the prelude of the read-modify-write operations: it checks
// write access to the size-byte word at addr, which must not straddle a page
// (what names the operation in the error), takes the page exclusively and
// returns the word in its frame — valid until the task next yields.
func (th *Thread) atomicWord(addr mem.Addr, size int, what string) ([]byte, error) {
	if err := th.checkAccess(addr, size, true); err != nil {
		return nil, err
	}
	if addr.PageOff() > mem.PageSize-size {
		return nil, fmt.Errorf("%w: %s straddles a page boundary at %v", mem.ErrBadRange, what, addr)
	}
	pte := th.proc.mgr.EnsurePage(th.task, th.ctx(), addr, true)
	return pte.Frame[addr.PageOff() : addr.PageOff()+size], nil
}

// Futex word states used by FutexWait/FutexWake callers are application
// defined; the kernel-side semantics match Linux FUTEX_WAIT/FUTEX_WAKE.

// FutexWait blocks until woken if the 32-bit word at addr still holds val.
// The check and the enqueue are delegated to the origin and performed
// against origin-local memory, exactly as §III-A describes. It returns
// false (EAGAIN) if the value had already changed.
func (th *Thread) FutexWait(addr mem.Addr, val uint32) (bool, error) {
	if err := th.checkAccess(addr, 4, false); err != nil {
		return false, err
	}
	p := th.proc
	type res = result[bool] // v: the thread slept
	r := delegate(p, th, "futex-wait", func(t *sim.Task) res {
		if p.futexPoisoned != nil {
			// A node has crashed: futex synchronization in this process is
			// poisoned (the wait could depend on a dead peer).
			return res{err: p.futexPoisoned}
		}
		// The value check runs at the origin against origin-resident
		// memory (pulling the page home if needed).
		pte := p.mgr.EnsurePage(t, dsm.Ctx{Node: p.origin, Task: th.id, Site: "futex"}, addr, false)
		cur := binary.LittleEndian.Uint32(pte.Frame[addr.PageOff() : addr.PageOff()+4])
		if cur != val {
			return res{}
		}
		w := p.fut.Enqueue(t, addr)
		th.futexWaiter = w
		w.Block()
		th.futexWaiter = nil
		if w.Expired() {
			return res{v: true, err: p.futexPoisoned}
		}
		return res{v: true}
	})
	return r.v, r.err
}

// FutexWake wakes up to n waiters blocked on addr and returns how many were
// woken. Like FutexWait it executes at the origin.
func (th *Thread) FutexWake(addr mem.Addr, n int) (int, error) {
	if err := th.checkAccess(addr, 4, false); err != nil {
		return 0, err
	}
	p := th.proc
	return delegate(p, th, "futex-wake", func(t *sim.Task) int { return p.fut.Wake(addr, n) }), nil
}

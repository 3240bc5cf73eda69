package serve

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"dex"
	"dex/internal/load"
	"dex/internal/obs"
)

// shard runs one store partition on its own node. It polls every
// gateway's ring in fixed order, applies slots strictly in sequence
// order, and acknowledges each with the completion half of the slot. Its
// whole recoverable state is the store pages plus the consumed-sequence
// vector: Checkpoint captures both atomically, so a restart replays
// exactly the rolled-back suffix and the sequence numbers make the replay
// exactly-once.
type shard struct {
	lay *layout
	id  int

	consumed []uint64
	stopped  uint64 // bitmask over gateways
	opsSince int
	lastCkpt time.Duration
	lastScan time.Duration
	reacks   int
	restarts int

	poll []dex.Addr // scratch: the slots an idle round reads
	// ckpt is blob's scratch, copied by the calls it is handed to
	// (Thread.Checkpoint, Write).
	ckpt []byte
}

// blob encodes the consumed vector and stop mask — the "registers" of the
// shard's checkpoint — into the shard's scratch, valid until the next call.
func (sh *shard) blob() []byte {
	out := sh.ckpt[:0]
	for _, v := range sh.consumed {
		out = binary.LittleEndian.AppendUint64(out, v)
	}
	sh.ckpt = binary.LittleEndian.AppendUint64(out, sh.stopped)
	return sh.ckpt
}

func (sh *shard) restore(blob []byte) {
	sh.consumed = make([]uint64, sh.lay.gateways)
	sh.stopped = 0
	if len(blob) != 8*sh.lay.gateways+8 {
		return // first launch, or pre-first-checkpoint restart: zero state
	}
	for g := range sh.consumed {
		sh.consumed[g] = binary.LittleEndian.Uint64(blob[8*g:])
	}
	sh.stopped = binary.LittleEndian.Uint64(blob[8*sh.lay.gateways:])
}

func (sh *shard) isStopped(g int) bool { return sh.stopped&(1<<uint(g)) != 0 }

func (sh *shard) stoppedCount() int {
	n := 0
	for g := 0; g < sh.lay.gateways; g++ {
		if sh.isStopped(g) {
			n++
		}
	}
	return n
}

func (sh *shard) run(t *dex.Thread, blob []byte) error {
	sh.restore(blob)
	sh.restarts = t.Restarts()
	// Home placement is best-effort: a fresh shard lands on a live node;
	// a restarted one stays at the origin while its node is dead.
	if sh.id != 0 {
		_ = t.Migrate(sh.id)
	}
	sh.lastCkpt = t.Now()
	for sh.stoppedCount() < sh.lay.gateways {
		progress := false
		for g := 0; g < sh.lay.gateways; g++ {
			if sh.isStopped(g) {
				continue
			}
			applied, err := sh.consumeRing(t, g)
			if err != nil {
				return err
			}
			if applied {
				progress = true
			}
		}
		if err := sh.maybeCheckpoint(t, progress); err != nil {
			return err
		}
		if !progress {
			if t.Restarts() > 0 {
				if err := sh.reackScan(t); err != nil {
					return err
				}
			}
			sh.idle(t)
		}
	}
	// Final checkpoint: the stop marks and last consumed sequences become
	// durable, letting the gateways recycle every slot.
	return sh.checkpoint(t)
}

// idle sleeps to the next poll tick at which the shard has something to do:
// a slot it polls was written (or its page moved), the idle checkpoint or the
// next re-ack scan is due, or the polling reads' own cost falls due. The ticks
// before that one are charged as the empty rounds they are, without running
// the shard (dex.Thread.PollIdle).
func (sh *shard) idle(t *dex.Thread) {
	until := time.Duration(math.MaxInt64)
	if sh.lay.faulty && sh.opsSince > 0 {
		until = sh.lastCkpt + idleCkpt
	}
	if t.Restarts() > 0 {
		until = min(until, sh.lastScan+reackInterval)
	}
	sh.poll = sh.poll[:0]
	for g := 0; g < sh.lay.gateways; g++ {
		if !sh.isStopped(g) {
			sh.poll = append(sh.poll, sh.lay.slotAddr(g, sh.id, sh.consumed[g]+1))
		}
	}
	t.PollIdle(shardPoll, until, sh.poll, reqBytes)
}

// consumeRing applies every in-sequence slot currently published on
// gateway g's ring.
func (sh *shard) consumeRing(t *dex.Thread, g int) (bool, error) {
	applied := false
	for {
		seq := sh.consumed[g] + 1
		addr := sh.lay.slotAddr(g, sh.id, seq)
		var req [reqBytes]byte
		if err := t.Read(addr, req[:]); err != nil {
			return applied, err
		}
		if binary.LittleEndian.Uint64(req[reqOffSeq:]) != seq {
			return applied, nil
		}
		op := binary.LittleEndian.Uint32(req[reqOffOp:])
		value, err := sh.apply(t, op, &req)
		if err != nil {
			return applied, err
		}
		complete(t, addr, seq, value)
		sh.consumed[g] = seq
		sh.opsSince++
		applied = true
		if op == opStop {
			sh.stopped |= 1 << uint(g)
			return applied, nil
		}
		arrival := time.Duration(binary.LittleEndian.Uint64(req[reqOffArrival:]))
		t.EmitSpan("serve", "req.serve", arrival, obs.Int("tenant", int64(g)))
	}
}

// complete writes the completion half of the slot at addr: seq is
// acknowledged now, with value as its result.
func complete(t *dex.Thread, addr dex.Addr, seq, value uint64) {
	var done [doneBytes]byte
	binary.LittleEndian.PutUint64(done[doneOffSeq:], seq)
	binary.LittleEndian.PutUint64(done[doneOffAt:], uint64(t.Now()))
	binary.LittleEndian.PutUint64(done[doneOffVal:], value)
	mustWrite(t, addr+doneOff, done[:])
}

// apply executes one operation against the store partition.
func (sh *shard) apply(t *dex.Thread, op uint32, req *[reqBytes]byte) (uint64, error) {
	if op == opStop {
		return 0, nil
	}
	key := binary.LittleEndian.Uint64(req[reqOffKey:])
	addr := sh.lay.storeAddr(key)
	t.Compute(applyCost)
	switch op {
	case uint32(load.OpGet):
		return t.ReadUint64(addr)
	case uint32(load.OpIncr):
		v, err := t.ReadUint64(addr)
		if err != nil {
			return 0, err
		}
		delta := binary.LittleEndian.Uint64(req[reqOffDelta:])
		return v + delta, t.WriteUint64(addr, v+delta)
	default:
		return 0, fmt.Errorf("serve: shard %d: bad op %d", sh.id, op)
	}
}

// maybeCheckpoint checkpoints when enough operations have accumulated, or
// when the shard goes idle with un-checkpointed work — the idle case is
// what lets gateway reuse floors catch up after a burst.
func (sh *shard) maybeCheckpoint(t *dex.Thread, progress bool) error {
	if !sh.lay.faulty || sh.opsSince == 0 {
		return nil
	}
	if sh.opsSince >= checkpointEvery || (!progress && t.Now()-sh.lastCkpt >= idleCkpt) {
		return sh.checkpoint(t)
	}
	return nil
}

// checkpoint snapshots the shard (store pages + consumed vector,
// atomically) and then publishes the consumed vector as the new stable
// watermark. Publishing after the snapshot means the watermark never
// promises coverage a crash could revoke.
func (sh *shard) checkpoint(t *dex.Thread) error {
	if !sh.lay.faulty {
		return nil
	}
	blob := sh.blob()
	if err := t.Checkpoint(blob); err != nil {
		return err
	}
	sh.opsSince = 0
	sh.lastCkpt = t.Now()
	// The blob starts with the consumed vector, the stable watermark.
	mustWrite(t, sh.lay.stableAddr(0, sh.id), blob[:8*len(sh.consumed)])
	return nil
}

// reackScan runs only on restarted shards: it re-acknowledges slots whose
// operation was applied (sequence at or below the consumed watermark) but
// whose completion half was lost with the crashed node — the gateway has
// re-published the request and is waiting. The store is not touched
// beyond re-reading the current value, so re-acks stay exactly-once.
func (sh *shard) reackScan(t *dex.Thread) error {
	if now := t.Now(); now-sh.lastScan < reackInterval {
		return nil
	} else {
		sh.lastScan = now
	}
	for g := 0; g < sh.lay.gateways; g++ {
		base := sh.lay.ringPage(g, sh.id)
		for idx := 0; idx < ringSlots; idx++ {
			addr := base + dex.Addr(idx*slotBytes)
			var req [reqBytes]byte
			if err := t.Read(addr, req[:]); err != nil {
				return err
			}
			seq := binary.LittleEndian.Uint64(req[reqOffSeq:])
			if seq == 0 || seq > sh.consumed[g] {
				continue
			}
			var done [8]byte
			if err := t.Read(addr+doneOff, done[:]); err != nil {
				return err
			}
			if binary.LittleEndian.Uint64(done[:]) == seq {
				continue
			}
			op := binary.LittleEndian.Uint32(req[reqOffOp:])
			var value uint64
			if op == uint32(load.OpGet) || op == uint32(load.OpIncr) {
				v, err := t.ReadUint64(sh.lay.storeAddr(binary.LittleEndian.Uint64(req[reqOffKey:])))
				if err != nil {
					return err
				}
				value = v
			}
			complete(t, addr, seq, value)
			sh.reacks++
			t.EmitSpan("serve", "req.retry", t.Now(),
				obs.Int("tenant", int64(g)), obs.Int("seq", int64(seq)), obs.String("side", "reack"))
		}
	}
	return nil
}

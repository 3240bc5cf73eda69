package serve

import (
	"encoding/binary"
	"fmt"
	"time"

	"dex"
	"dex/internal/load"
	"dex/internal/obs"
)

// ring is the gateway-side view of one (gateway, shard) slot ring.
// Sequence numbers start at 1 and never repeat; the shard applies them
// strictly in order, so completions arrive in order too and the
// gateway-side state is three cursors plus the images of in-flight
// requests (kept for crash repair).
type ring struct {
	// next is the sequence number the next publish will use.
	next uint64
	// harvest is the next sequence number to collect a completion for;
	// everything below it has been harvested exactly once.
	harvest uint64
	// floor is the reuse watermark: slots of sequences <= floor may be
	// overwritten. Without fault injection it tracks harvest-1; with
	// injection it is additionally capped by the shard's published stable
	// watermark, so a slot is never recycled while a crash could roll the
	// shard back past it.
	floor uint64
	// stable caches the shard's published stable watermark (monotonic).
	stable uint64
	// reqs are the published request images of in-flight slots, indexed
	// by (seq-1) % slots, re-written verbatim when a crash loses them.
	reqs [ringSlots][reqBytes]byte
	// lastRepair rate-limits crash-repair scans.
	lastRepair time.Duration
}

// gateway runs one tenant's front end: open-loop arrival pacing,
// token-bucket admission, publish/harvest on the per-shard rings, and the
// Go-side latency/shed accounting the report is assembled from.
type gateway struct {
	lay    *layout
	id     int
	spec   load.TenantSpec
	sched  []load.Request
	epoch  time.Duration
	rings  []*ring
	bucket float64
	lastAt time.Duration

	admitted, shed429, shedQueue int
	served, gets, incrs          int
	republishes                  int
	lats                         []time.Duration
	// expect accumulates the admitted increment sum per global key — the
	// exactly-once reference the final store is checked against.
	expect map[uint64]uint64
}

func newGateway(lay *layout, id int, spec load.TenantSpec, sched []load.Request, epoch time.Duration) *gateway {
	gw := &gateway{
		lay:    lay,
		id:     id,
		spec:   spec,
		sched:  sched,
		epoch:  epoch,
		bucket: float64(burstOf(spec)),
		expect: map[uint64]uint64{},
	}
	for s := 0; s < lay.shards; s++ {
		gw.rings = append(gw.rings, &ring{next: 1, harvest: 1})
	}
	return gw
}

func burstOf(spec load.TenantSpec) int {
	if spec.LimitRPS <= 0 {
		return 0
	}
	if spec.Burst < 1 {
		return 1
	}
	return spec.Burst
}

// admit evaluates the token bucket at the scheduled arrival time. It
// depends only on the schedule, never on backend progress, so the 429 set
// is identical across protocols, node counts, and fault plans.
func (gw *gateway) admit(req load.Request) bool {
	if gw.spec.LimitRPS <= 0 {
		return true
	}
	gw.bucket += (req.At - gw.lastAt).Seconds() * gw.spec.LimitRPS
	if burst := float64(burstOf(gw.spec)); gw.bucket > burst {
		gw.bucket = burst
	}
	gw.lastAt = req.At
	if gw.bucket < 1 {
		return false
	}
	gw.bucket--
	return true
}

func (gw *gateway) run(t *dex.Thread) error {
	for _, req := range gw.sched {
		at := gw.epoch + req.At
		t.SleepUntil(at)
		if !gw.admit(req) {
			gw.shed429++
			t.EmitSpan("serve", "req.shed", at, obs.Int("tenant", int64(gw.id)), obs.String("why", "429"))
			continue
		}
		g := gw.lay.globalKey(gw.id, req.Key)
		s := gw.lay.shardOf(g)
		r := gw.rings[s]
		// Collect ready completions first: that both records latencies
		// promptly and frees slots for reuse.
		if err := gw.harvestRing(t, s); err != nil {
			return err
		}
		if r.next-r.floor > ringSlots {
			// Bounded queue: the ring to this shard is full, shed now
			// rather than queue unboundedly.
			gw.shedQueue++
			t.EmitSpan("serve", "req.shed", at, obs.Int("tenant", int64(gw.id)), obs.String("why", "queue"))
			continue
		}
		gw.publish(t, s, req, at)
		t.Compute(gatewayCost)
	}
	// Drain all in-flight requests, then stop every shard. Both phases
	// run even after an error so live shards always see their stop
	// markers and the simulation can wind down.
	err := gw.drain(t)
	if stopErr := gw.stop(t); err == nil {
		err = stopErr
	}
	return err
}

// publish writes the request half of the next slot of ring s in one
// atomic Write and remembers the image for crash repair.
func (gw *gateway) publish(t *dex.Thread, s int, req load.Request, at time.Duration) {
	r := gw.rings[s]
	g := gw.lay.globalKey(gw.id, req.Key)
	var img [reqBytes]byte
	binary.LittleEndian.PutUint64(img[reqOffSeq:], r.next)
	binary.LittleEndian.PutUint32(img[reqOffOp:], uint32(req.Op))
	binary.LittleEndian.PutUint64(img[reqOffKey:], g)
	binary.LittleEndian.PutUint64(img[reqOffDelta:], req.Delta)
	binary.LittleEndian.PutUint64(img[reqOffUser:], req.User)
	binary.LittleEndian.PutUint64(img[reqOffArrival:], uint64(at))
	r.reqs[(r.next-1)%ringSlots] = img
	mustWrite(t, gw.lay.slotAddr(gw.id, s, r.next), img[:])
	r.next++
	gw.admitted++
	if req.Op == load.OpIncr {
		gw.expect[g] += req.Delta
	}
}

// harvestRing collects every completion that is ready on ring s, in
// sequence order, and advances the reuse floor. It reports whether any
// cursor moved.
func (gw *gateway) harvestRing(t *dex.Thread, s int) error {
	r := gw.rings[s]
	for r.harvest < r.next {
		seq := r.harvest
		addr := gw.lay.slotAddr(gw.id, s, seq) + doneOff
		var buf [doneBytes]byte
		if err := t.Read(addr, buf[:]); err != nil {
			return err
		}
		if binary.LittleEndian.Uint64(buf[doneOffSeq:]) != seq {
			break
		}
		img := &r.reqs[(seq-1)%ringSlots]
		op := binary.LittleEndian.Uint32(img[reqOffOp:])
		if op != opStop {
			arrival := time.Duration(binary.LittleEndian.Uint64(img[reqOffArrival:]))
			doneAt := time.Duration(binary.LittleEndian.Uint64(buf[doneOffAt:]))
			gw.lats = append(gw.lats, doneAt-arrival)
			gw.served++
			if op == uint32(load.OpGet) {
				gw.gets++
			} else {
				gw.incrs++
			}
		}
		r.harvest++
	}
	gw.advanceFloor(t, s)
	return nil
}

// advanceFloor raises the reuse watermark over harvested slots; under
// fault injection it additionally requires the shard's stable watermark
// to have covered the sequence, refreshing the cached value when blocked.
func (gw *gateway) advanceFloor(t *dex.Thread, s int) {
	r := gw.rings[s]
	refreshed := false
	for r.floor+1 < r.harvest {
		if gw.lay.faulty && r.floor+1 > r.stable {
			if refreshed {
				return
			}
			refreshed = true
			v, err := t.ReadUint64(gw.lay.stableAddr(gw.id, s))
			if err != nil {
				return
			}
			if v > r.stable {
				r.stable = v
			}
			if r.floor+1 > r.stable {
				return
			}
		}
		r.floor++
	}
}

// repairRing re-publishes any in-flight slot whose request half no longer
// carries what the gateway wrote — the ring page was lost with a crashed
// node and came back older or zeroed. Only in-flight images exist, so the
// scan is bounded by the ring depth; it is rate-limited since it can only
// find work after a crash.
func (gw *gateway) repairRing(t *dex.Thread, s int) error {
	if !gw.lay.faulty {
		return nil
	}
	r := gw.rings[s]
	if now := t.Now(); now-r.lastRepair < repairInterval {
		return nil
	} else {
		r.lastRepair = now
	}
	lo := r.floor + 1
	for seq := lo; seq < r.next; seq++ {
		addr := gw.lay.slotAddr(gw.id, s, seq)
		var buf [8]byte
		if err := t.Read(addr, buf[:]); err != nil {
			return err
		}
		if binary.LittleEndian.Uint64(buf[:]) == seq {
			continue
		}
		img := r.reqs[(seq-1)%ringSlots]
		mustWrite(t, addr, img[:])
		gw.republishes++
		t.EmitSpan("serve", "req.retry", t.Now(),
			obs.Int("tenant", int64(gw.id)), obs.Int("seq", int64(seq)), obs.String("side", "republish"))
	}
	return nil
}

// outstanding reports how many published requests still await harvest.
func (gw *gateway) outstanding() int {
	n := 0
	for _, r := range gw.rings {
		n += int(r.next - r.harvest)
	}
	return n
}

// settle harvests until every published request has completed, repairing
// crash-damaged slots along the way. An unresponsive shard (possible when
// a crashed node's shard is not restartable) bounds the wait: after
// stallTimeout of zero progress it gives up and returns how many requests
// are still in flight rather than spin forever.
func (gw *gateway) settle(t *dex.Thread) (stuck int, err error) {
	lastProgress := t.Now()
	before := -1
	for gw.outstanding() > 0 {
		for s := range gw.rings {
			if err := gw.harvestRing(t, s); err != nil {
				return 0, err
			}
			if err := gw.repairRing(t, s); err != nil {
				return 0, err
			}
		}
		if n := gw.outstanding(); n != before {
			before = n
			lastProgress = t.Now()
		} else if t.Now()-lastProgress > stallTimeout {
			return n, nil
		}
		if gw.outstanding() > 0 {
			t.Sleep(drainPoll)
		}
	}
	return 0, nil
}

// drain settles the requests of the schedule; a stall is an error.
func (gw *gateway) drain(t *dex.Thread) error {
	stuck, err := gw.settle(t)
	if err == nil && stuck > 0 {
		err = fmt.Errorf("serve: tenant %d: %d requests still in flight after %v without progress",
			gw.id, stuck, stallTimeout)
	}
	return err
}

// stop publishes an in-band stop marker on every ring and waits for the
// shards to acknowledge them, with the same repair and stall handling as
// drain. Stop markers always go out — even to shards presumed dead — so
// surviving shards can exit.
func (gw *gateway) stop(t *dex.Thread) error {
	var firstErr error
	for s := range gw.rings {
		r := gw.rings[s]
		// After a successful drain the ring has free slots; under a failed
		// drain the slot may never free, so bound the wait.
		waitStart := t.Now()
		for r.next-r.floor > ringSlots {
			if err := gw.harvestRing(t, s); err != nil {
				return err
			}
			if r.next-r.floor <= ringSlots {
				break
			}
			if t.Now()-waitStart > stallTimeout {
				break
			}
			t.Sleep(drainPoll)
		}
		if r.next-r.floor > ringSlots {
			if firstErr == nil {
				firstErr = fmt.Errorf("serve: tenant %d: no free slot to stop shard %d", gw.id, s)
			}
			continue
		}
		gw.publish(t, s, load.Request{Op: load.Op(opStop)}, t.Now())
		gw.admitted-- // stop markers are not requests
	}
	stuck, err := gw.settle(t)
	if err != nil {
		return err
	}
	if stuck > 0 && firstErr == nil {
		firstErr = fmt.Errorf("serve: tenant %d: shard did not acknowledge stop", gw.id)
	}
	return firstErr
}

// mustWrite is a Write whose only failure modes (unmapped or protected
// address) are programming errors in the fixed layout.
func mustWrite(t *dex.Thread, addr dex.Addr, data []byte) {
	if err := t.Write(addr, data); err != nil {
		panic(fmt.Sprintf("serve: ring write at %#x: %v", uint64(addr), err))
	}
}

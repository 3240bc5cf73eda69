// Package serve runs DeX as a live-traffic backend: a sharded in-memory
// KV/aggregation store served by DeX threads, fed by the deterministic
// open-loop generator of internal/load, with per-tenant token-bucket
// admission control at a gateway layer and SLO reporting (exact latency
// percentiles, goodput, shed counts) through internal/obs.
//
// # Topology
//
// One gateway thread per tenant runs at the origin and never migrates —
// it models the front-end fleet, which in the paper's deployment story
// stays outside the elastic memory domain. One store shard thread runs
// per node; shard i migrates to node i at startup, so the store's pages
// live where its compute does and every remote request exercises the DSM
// protocol under measurement. Keys interleave across shards
// (shard = key mod shards), so every tenant's hot Zipf head spreads over
// the whole cluster.
//
// # Request path and exactly-once
//
// Each (gateway, shard) pair shares one page-sized SPSC slot ring.
// A request occupies one 128-byte slot: the gateway publishes the request
// half (seq, op, key, delta, user, arrival) in a single atomic Write, the
// shard appends the completion half (seq, completion time, value) in
// another. Sequence numbers are per-ring and monotonically increasing —
// they are the idempotency keys. The shard applies slots strictly in
// sequence order; the gateway harvests completions in the same order.
//
// Under fault injection a crashed shard restarts from its last
// checkpoint, which atomically captures the store pages *and* the
// consumed-sequence vector, so replay re-applies exactly the suffix whose
// effects were rolled back — an increment is never applied twice and
// never lost. Two repair paths close the holes crash recovery opens:
//
//   - The gateway re-publishes any in-flight slot whose request half no
//     longer matches what it wrote (the page was lost with the node and
//     restored from an older copy or zero-filled).
//   - A restarted shard periodically re-acknowledges slots it has already
//     consumed whose completion half went missing, without re-applying
//     them (emitting req.retry instead of req.serve).
//
// Slot reuse is gated on the shard's published "stable" watermark (its
// consumed vector as of the last checkpoint) so a slot is never recycled
// while a crash could still roll the shard back past it.
//
// # Admission control
//
// Gateways are open-loop: requests arrive at their scheduled virtual
// times no matter how the backend is doing. Admission is a per-tenant
// token bucket evaluated at the scheduled arrival time — a pure function
// of the schedule — plus a bounded-queue check: if the target ring is
// full the request is shed immediately (a counted 429), never queued
// unboundedly. Shed requests emit req.shed spans; served requests emit
// req.serve spans on the serving node's lane with the request's full
// arrival-to-completion latency.
package serve

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"dex"
	"dex/internal/load"
)

// Config parameterizes one serving run.
type Config struct {
	// Nodes is the cluster size; one store shard runs per node.
	Nodes int
	// Spec is the traffic description (see load.Spec).
	Spec load.Spec
	// Restart spawns shards restartable: a shard lost with its node is
	// re-spawned from its last checkpoint instead of failing the run.
	Restart bool
	// Opts are extra cluster options (protocol, chaos plan, observer...).
	Opts []dex.Option
}

func (cfg Config) withDefaults() Config {
	if cfg.Nodes == 0 {
		cfg.Nodes = 1
	}
	return cfg
}

// TenantStats is the per-tenant slice of the SLO report.
type TenantStats struct {
	Name      string        `json:"name"`
	Offered   int           `json:"offered"`
	Admitted  int           `json:"admitted"`
	Shed429   int           `json:"shed_429"`
	ShedQueue int           `json:"shed_queue"`
	Served    int           `json:"served"`
	Gets      int           `json:"gets"`
	Incrs     int           `json:"incrs"`
	Goodput   float64       `json:"goodput_rps"`
	P50       time.Duration `json:"p50_ns"`
	P95       time.Duration `json:"p95_ns"`
	P99       time.Duration `json:"p99_ns"`
	P999      time.Duration `json:"p999_ns"`
	Max       time.Duration `json:"max_ns"`
}

// Report is the outcome of one serving run: per-tenant SLO stats, the
// totals row, recovery counters, and the underlying cluster report.
type Report struct {
	Fingerprint string        `json:"spec_fingerprint"`
	Nodes       int           `json:"nodes"`
	Tenants     []TenantStats `json:"tenants"`
	Total       TenantStats   `json:"total"`
	// Republishes counts gateway re-publications of in-flight slots whose
	// request half was lost with a node; Reacks counts shard
	// re-acknowledgements of already-applied slots after a restart.
	Republishes int `json:"republishes"`
	Reacks      int `json:"reacks"`
	// Restarts counts shard re-launches from checkpoints after node
	// crashes.
	Restarts int `json:"restarts"`
	// StateSum is an FNV digest of the final store contents in global key
	// order.
	StateSum uint64 `json:"state_sum"`
	// Elapsed is the full virtual run time (setup + traffic + drain).
	Elapsed time.Duration `json:"elapsed_ns"`
	Dex     dex.Report    `json:"report"`
}

// Digest is a placement-independent answer digest: admission under the
// token bucket is a pure function of the schedule, every admitted request
// is served exactly once, and increments commute — so these counts and
// the state sum depend only on (spec, admission), not on node count,
// protocol, tracing, or host parallelism. Queue sheds do depend on
// backend speed, so they are reported but not part of the digest claim;
// they are zero in unloaded clean runs.
func (r Report) Digest() string {
	return fmt.Sprintf("offered=%d admitted=%d served=%d state=%016x",
		r.Total.Offered, r.Total.Admitted, r.Total.Served, r.StateSum)
}

// --- wire layout -----------------------------------------------------------

// Slot layout within a ring page. The request half is written by the
// gateway in one atomic Write, the completion half by the shard in
// another; the two halves never overlap.
const (
	slotBytes = 128
	maxSlots  = dex.PageSize / slotBytes
	// ringSlots is the depth of each (gateway, shard) request ring — the
	// bounded queue whose overflow sheds. A ring is one page and a gateway
	// needs a slot in flight beside the one it fills.
	ringSlots = 16
	_         = uint(ringSlots-2) + uint(maxSlots-ringSlots) // 2 <= ringSlots <= maxSlots
	// checkpointEvery is how many applied operations a shard batches
	// between checkpoints under fault injection.
	checkpointEvery = 8

	reqOffSeq     = 0  // uint64: per-ring sequence number (idempotency key)
	reqOffOp      = 8  // uint32: load.Op, or opStop
	reqOffKey     = 16 // uint64: global key index
	reqOffDelta   = 24 // uint64
	reqOffUser    = 32 // uint64
	reqOffArrival = 40 // uint64: scheduled arrival, ns of virtual time
	reqBytes      = 48

	doneOff     = 64 // completion half begins here
	doneOffSeq  = 0  // uint64 (relative to doneOff)
	doneOffAt   = 8  // uint64: completion time, ns of virtual time
	doneOffVal  = 16 // uint64: get/incr result
	doneBytes   = 24
	wordsInPage = dex.PageSize / 8
)

// opStop is the in-band shutdown marker a gateway publishes after its
// schedule drains; it shares the op field with load.Op values.
const opStop = uint32(3)

// Virtual-time pacing constants.
const (
	epochMargin    = time.Millisecond       // setup headroom before traffic starts
	gatewayCost    = 300 * time.Nanosecond  // admission + routing CPU per request
	applyCost      = time.Microsecond       // store CPU per applied operation
	shardPoll      = 2 * time.Microsecond   // shard idle poll period
	drainPoll      = 10 * time.Microsecond  // gateway drain/stop poll period
	repairInterval = 50 * time.Microsecond  // min spacing of gateway repair scans
	reackInterval  = 50 * time.Microsecond  // min spacing of shard re-ack scans
	idleCkpt       = 100 * time.Microsecond // shard checkpoint-on-idle threshold
	stallTimeout   = 250 * time.Millisecond // give up on an unresponsive shard
)

// layout is the shared-memory map of a run, fixed before any thread
// spawns.
type layout struct {
	shards, gateways     int
	tenantBase           []int // global key index base per tenant
	keysTotal            int
	storePagesPerShard   int
	store, rings, status dex.Addr
	faulty               bool
}

func (l *layout) shardOf(g uint64) int { return int(g % uint64(l.shards)) }
func (l *layout) localOf(g uint64) int { return int(g / uint64(l.shards)) }
func (l *layout) globalKey(tenant int, key uint64) uint64 {
	return uint64(l.tenantBase[tenant]) + key
}

func (l *layout) storeAddr(g uint64) dex.Addr {
	s := l.shardOf(g)
	return l.store + dex.Addr(s*l.storePagesPerShard*dex.PageSize+l.localOf(g)*8)
}

func (l *layout) ringPage(gw, shard int) dex.Addr {
	return l.rings + dex.Addr((gw*l.shards+shard)*dex.PageSize)
}

func (l *layout) slotAddr(gw, shard int, seq uint64) dex.Addr {
	idx := int((seq - 1) % ringSlots)
	return l.ringPage(gw, shard) + dex.Addr(idx*slotBytes)
}

func (l *layout) stableAddr(gw, shard int) dex.Addr {
	return l.status + dex.Addr(shard*dex.PageSize+gw*8)
}

// --- run -------------------------------------------------------------------

// Run executes one serving run and assembles its SLO report. The run is
// deterministic: the same Config (spec, seed, options) produces the same
// report, with or without tracing attached.
func Run(cfg Config) (Report, error) {
	cfg = cfg.withDefaults()
	if cfg.Nodes < 1 {
		return Report{}, fmt.Errorf("serve: nodes %d < 1", cfg.Nodes)
	}
	if len(cfg.Spec.Tenants) > 64 {
		return Report{}, fmt.Errorf("serve: %d tenants exceed the 64-tenant limit", len(cfg.Spec.Tenants))
	}
	sched, err := load.Schedule(cfg.Spec)
	if err != nil {
		return Report{}, err
	}

	opts := append([]dex.Option{dex.WithSeed(cfg.Spec.Seed)}, cfg.Opts...)
	cluster := dex.NewCluster(cfg.Nodes, opts...)

	lay := &layout{
		shards:   cluster.Nodes(),
		gateways: len(cfg.Spec.Tenants),
		faulty:   cluster.FaultInjection(),
	}
	for _, t := range cfg.Spec.Tenants {
		lay.tenantBase = append(lay.tenantBase, lay.keysTotal)
		lay.keysTotal += t.Keys
	}
	perShard := (lay.keysTotal + lay.shards - 1) / lay.shards
	lay.storePagesPerShard = (perShard + wordsInPage - 1) / wordsInPage
	if lay.storePagesPerShard == 0 {
		lay.storePagesPerShard = 1
	}

	gws := make([]*gateway, lay.gateways)
	shs := make([]*shard, lay.shards)
	final := make([]uint64, lay.keysTotal)
	var elapsed time.Duration

	report, err := cluster.Run(func(main *dex.Thread) error {
		var err error
		if lay.store, err = main.Mmap(uint64(lay.shards*lay.storePagesPerShard*dex.PageSize), dex.ProtRead|dex.ProtWrite, "srv.store"); err != nil {
			return err
		}
		if lay.rings, err = main.Mmap(uint64(lay.gateways*lay.shards*dex.PageSize), dex.ProtRead|dex.ProtWrite, "srv.rings"); err != nil {
			return err
		}
		if lay.status, err = main.Mmap(uint64(lay.shards*dex.PageSize), dex.ProtRead|dex.ProtWrite, "srv.status"); err != nil {
			return err
		}

		// Shards first: one per node, each migrating to its home. Shard 0
		// shares the origin, which chaos plans never crash, so at least one
		// shard always survives.
		shardThreads := make([]*dex.Thread, lay.shards)
		for s := 0; s < lay.shards; s++ {
			sh := &shard{lay: lay, id: s}
			shs[s] = sh
			var t *dex.Thread
			if cfg.Restart {
				t, err = main.SpawnRestartable(sh.run)
			} else {
				t, err = main.Spawn(func(t *dex.Thread) error { return sh.run(t, nil) })
			}
			if err != nil {
				return err
			}
			shardThreads[s] = t
		}

		// The traffic epoch is fixed before the gateways spawn, so every
		// gateway paces its open-loop schedule against the same origin of
		// virtual time.
		epoch := main.Now() + epochMargin
		gwThreads := make([]*dex.Thread, lay.gateways)
		for g := 0; g < lay.gateways; g++ {
			gw := newGateway(lay, g, cfg.Spec.Tenants[g], sched[g], epoch)
			gws[g] = gw
			t, err := main.Spawn(gw.run)
			if err != nil {
				return err
			}
			gwThreads[g] = t
		}

		var firstErr error
		for _, t := range gwThreads {
			if err := main.Join(t); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		// Every gateway has published (or given up on) its stop markers;
		// live shards drain them and exit.
		for s, t := range shardThreads {
			if err := main.Join(t); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("shard %d: %w", s, err)
			}
		}
		// Read the final store back at the origin — every page faults over
		// from its shard — for the exactly-once self-check.
		if firstErr == nil {
			for s := 0; s < lay.shards; s++ {
				buf := make([]byte, dex.PageSize)
				for p := 0; p < lay.storePagesPerShard; p++ {
					addr := lay.store + dex.Addr((s*lay.storePagesPerShard+p)*dex.PageSize)
					if err := main.Read(addr, buf); err != nil {
						return err
					}
					for w := 0; w < wordsInPage; w++ {
						g := (p*wordsInPage+w)*lay.shards + s
						if g < lay.keysTotal {
							final[g] = binary.LittleEndian.Uint64(buf[8*w:])
						}
					}
				}
			}
		}
		elapsed = main.Now()
		return firstErr
	})
	if err != nil {
		return Report{}, err
	}
	return assemble(cfg, lay, sched, gws, shs, final, report, elapsed)
}

// assemble folds the Go-side per-thread records into the SLO report and
// runs the exactly-once self-check against the final store contents.
func assemble(cfg Config, lay *layout, sched [][]load.Request, gws []*gateway, shs []*shard, final []uint64, dexRep dex.Report, elapsed time.Duration) (Report, error) {
	expected := make([]uint64, lay.keysTotal)
	for _, gw := range gws {
		for g, sum := range gw.expect {
			expected[g] += sum
		}
	}
	h := fnv.New64a()
	var buf [8]byte
	for g, v := range final {
		if v != expected[g] {
			return Report{}, fmt.Errorf("serve: exactly-once violated at key %d: store=%d expected=%d", g, v, expected[g])
		}
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}

	rep := Report{
		Fingerprint: cfg.Spec.Fingerprint(),
		Nodes:       lay.shards,
		StateSum:    h.Sum64(),
		Elapsed:     elapsed,
		Dex:         dexRep,
	}
	seconds := cfg.Spec.Duration.Seconds()
	var allLats []time.Duration
	for g, gw := range gws {
		ts := TenantStats{
			Name:      cfg.Spec.Tenants[g].Name,
			Offered:   len(sched[g]),
			Admitted:  gw.admitted,
			Shed429:   gw.shed429,
			ShedQueue: gw.shedQueue,
			Served:    gw.served,
			Gets:      gw.gets,
			Incrs:     gw.incrs,
			Goodput:   float64(gw.served) / seconds,
		}
		fillPercentiles(&ts, gw.lats)
		if gw.served != gw.admitted {
			return rep, fmt.Errorf("serve: tenant %d (%s): served %d != admitted %d", g, ts.Name, gw.served, gw.admitted)
		}
		rep.Republishes += gw.republishes
		rep.Tenants = append(rep.Tenants, ts)
		rep.Total.Offered += ts.Offered
		rep.Total.Admitted += ts.Admitted
		rep.Total.Shed429 += ts.Shed429
		rep.Total.ShedQueue += ts.ShedQueue
		rep.Total.Served += ts.Served
		rep.Total.Gets += ts.Gets
		rep.Total.Incrs += ts.Incrs
		allLats = append(allLats, gw.lats...)
	}
	for _, sh := range shs {
		rep.Reacks += sh.reacks
		rep.Restarts += sh.restarts
	}
	rep.Total.Name = "TOTAL"
	rep.Total.Goodput = float64(rep.Total.Served) / seconds
	fillPercentiles(&rep.Total, allLats)
	return rep, nil
}

// fillPercentiles computes exact nearest-rank percentiles over the
// recorded latencies.
func fillPercentiles(ts *TenantStats, lats []time.Duration) {
	if len(lats) == 0 {
		return
	}
	sorted := append([]time.Duration(nil), lats...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	rank := func(q float64) time.Duration {
		r := int(q*float64(len(sorted)) + 0.9999999)
		if r < 1 {
			r = 1
		}
		if r > len(sorted) {
			r = len(sorted)
		}
		return sorted[r-1]
	}
	ts.P50, ts.P95, ts.P99, ts.P999 = rank(0.50), rank(0.95), rank(0.99), rank(0.999)
	ts.Max = sorted[len(sorted)-1]
}

// Package probes measures single layers in isolation: each probe is a
// loop around direct calls into one layer's public functions, reporting
// host nanoseconds (or microseconds) and allocations per operation. The
// probes do not depend on a workload; a traced benchmark run measures them
// once and reports them beside the workload's own per-layer numbers, so a
// change in a workload's wall time can be set against the unit costs of
// the layers it uses.
package probes

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"dex"
	"dex/benchmark/spans"
	"dex/internal/dsm"
	"dex/internal/fabric"
	"dex/internal/mem"
	"dex/internal/obs"
	"dex/internal/sim"
)

// cost is what one probe run measured, per operation.
type cost struct {
	ns     float64
	allocs float64
}

// clock times the measured loop of a probe. Probes that run inside a
// simulation start it from task context, after their set-up.
type clock struct {
	t0      time.Time
	mallocs uint64
}

func start() clock {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return clock{t0: time.Now(), mallocs: ms.Mallocs}
}

func (c clock) stop(ops int) cost {
	elapsed := time.Since(c.t0)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return cost{
		ns:     float64(elapsed.Nanoseconds()) / float64(ops),
		allocs: float64(ms.Mallocs-c.mallocs) / float64(ops),
	}
}

// probe is one measurement: run executes ops operations and returns their
// cost. ops is sized so that one run takes some tens of milliseconds.
type probe struct {
	name string
	ops  int
	run  func(ops int) (cost, error)
	// report turns the median cost into named metrics.
	report func(c cost, out map[string]float64)
}

func ns(name string) func(cost, map[string]float64) {
	return func(c cost, out map[string]float64) { out[name] = c.ns }
}

func us(name string) func(cost, map[string]float64) {
	return func(c cost, out map[string]float64) { out[name] = c.ns / 1e3 }
}

func all() []probe {
	ps := []probe{
		{name: "sim.dispatch", ops: 400_000, run: simDispatch, report: ns("sim.dispatch_ns")},
		{name: "sim.switch", ops: 50_000, run: simSwitch, report: func(c cost, out map[string]float64) {
			out["sim.switch_ns"], out["sim.switch_allocs"] = c.ns, c.allocs
		}},
		{name: "sim.window", ops: 20_000, run: simWindow(runtime.NumCPU()), report: ns("sim.window_ns")},
		{name: "sim.window_serial", ops: 20_000, run: simWindow(1), report: ns("sim.window_serial_ns")},
		{name: "fabric.send_small", ops: 40_000, run: fabricSendSmall, report: ns("fabric.send_small_ns")},
		{name: "fabric.send_page", ops: 10_000, run: fabricSendPage, report: ns("fabric.send_page_ns")},
		{name: "dsm.fast", ops: 2_000_000, run: dsmFast, report: ns("dsm.fast_ns")},
		{name: "dsm.prefetch", ops: 8_192, run: dsmPrefetch, report: ns("dsm.prefetch_ns_per_page")},
		{name: "mem.tlb_hit", ops: 5_000_000, run: memLookup(1), report: ns("mem.tlb_hit_ns")},
		{name: "mem.walk", ops: 2_000_000, run: memLookup(tlbConflictStride), report: ns("mem.walk_ns")},
		{name: "core.migrate_roundtrip", ops: 1_000, run: coreMigrate, report: us("core.migrate_roundtrip_us")},
		{name: "core.rw_hit", ops: 1_000_000, run: coreReadHit, report: ns("core.rw_hit_ns")},
		{name: "futex.barrier", ops: 300, run: futexBarrier, report: us("futex.barrier_us")},
		{name: "obs.span", ops: 1_000_000, run: obsSpan(true), report: ns("obs.span_ns")},
		{name: "obs.off", ops: 20_000_000, run: obsSpan(false), report: ns("obs.off_ns")},
	}
	for _, pol := range []struct {
		short string
		proto dsm.Protocol
	}{{"wi", dsm.WriteInvalidate}, {"home", dsm.HomeMigrate}, {"dist", dsm.DistributedManager}} {
		short := pol.short
		ps = append(ps, probe{
			name: "dsm.slow_" + short, ops: 4_000, run: dsmSlow(pol.proto),
			report: func(c cost, out map[string]float64) {
				out["dsm.slow_"+short+"_us"], out["dsm.slow_"+short+"_allocs"] = c.ns/1e3, c.allocs
			},
		})
	}
	return ps
}

// Names lists the metrics Run reports, sorted.
func Names() []string {
	out := map[string]float64{}
	for _, p := range all() {
		p.report(cost{}, out)
	}
	names := make([]string, 0, len(out))
	for n := range out {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Run executes every probe reps times and reports the median cost of each.
// quick runs every probe once with a single operation: it checks that the
// probes work, not what they cost. Each probe gets a span in log.
func Run(quick bool, log *spans.Log, parent int) (map[string]float64, error) {
	reps := 3
	if quick {
		reps = 1
	}
	out := map[string]float64{}
	for _, p := range all() {
		ops := p.ops
		if quick {
			ops = 1
		}
		sp := log.Begin(parent, "probe "+p.name)
		costs := make([]cost, 0, reps)
		for r := 0; r < reps; r++ {
			c, err := p.run(ops)
			if err != nil {
				return nil, fmt.Errorf("probe %s: %w", p.name, err)
			}
			costs = append(costs, c)
		}
		log.End(sp)
		sort.Slice(costs, func(i, j int) bool { return costs[i].ns < costs[j].ns })
		p.report(costs[len(costs)/2], out)
	}
	return out, nil
}

// --- sim --------------------------------------------------------------------

// simDispatch is raw event throughput: After plus Run with 256 timers in
// flight, so the heap works at a realistic depth.
func simDispatch(ops int) (cost, error) {
	const inFlight = 256
	eng := sim.NewEngine(1)
	remaining := ops
	var tick func()
	tick = func() {
		if remaining <= 0 {
			return
		}
		remaining--
		eng.After(time.Microsecond, tick)
	}
	c := start()
	for i := 0; i < inFlight && i < ops; i++ {
		eng.After(time.Duration(i)*time.Nanosecond, tick)
	}
	err := eng.Run()
	return c.stop(ops), err
}

// simSwitch is one Task.Sleep round trip: the task yields to the event
// loop and is resumed by its timer.
func simSwitch(ops int) (cost, error) {
	eng := sim.NewEngine(1)
	var out cost
	eng.Spawn("probe", func(t *sim.Task) {
		c := start()
		for i := 0; i < ops; i++ {
			t.Sleep(time.Nanosecond)
		}
		out = c.stop(ops)
	})
	return out, eng.Run()
}

// simWindow is the cost of one lookahead window holding one event on each
// of eight node lanes: at several cores the worker pool and the window
// barrier run, at one core the serial loop replays the same windows.
func simWindow(cores int) func(int) (cost, error) {
	return func(ops int) (cost, error) {
		const lanes = 8
		const lookahead = time.Microsecond
		eng := sim.NewEngine(1)
		eng.ConfigureLanes(lanes, cores)
		eng.SetLookahead(lookahead)
		for l := 0; l < lanes; l++ {
			view := eng.LaneView(l)
			remaining := ops
			var tick func()
			tick = func() {
				if remaining--; remaining > 0 {
					view.After(lookahead, tick)
				}
			}
			view.After(0, tick)
		}
		c := start()
		err := eng.Run()
		return c.stop(ops), err
	}
}

// --- fabric -----------------------------------------------------------------

type probeMsg struct{}

func (probeMsg) Size() int { return 64 }

// fabricSendSmall sends small messages from node 0 to node 1 and lets
// them be delivered.
func fabricSendSmall(ops int) (cost, error) {
	eng := sim.NewEngine(1)
	net := fabric.New(eng, fabric.DefaultParams(2))
	net.SetHandler(1, func(int, fabric.Message) {})
	var out cost
	eng.Spawn("probe", func(t *sim.Task) {
		c := start()
		for i := 0; i < ops; i++ {
			net.Send(t, 0, 1, probeMsg{})
		}
		out = c.stop(ops)
	})
	return out, eng.Run()
}

// fabricSendPage is one page retrieval through the messaging layer:
// request, page transfer into the prepared receive, completion, claim.
func fabricSendPage(ops int) (cost, error) {
	eng := sim.NewEngine(1)
	net := fabric.New(eng, fabric.DefaultParams(2))
	page := make([]byte, mem.PageSize)
	var pr *fabric.PageRecv
	var requester *sim.Task
	arrived := false
	net.SetHandler(0, func(int, fabric.Message) {
		eng.Spawn("serve", func(t *sim.Task) { net.SendPage(t, 0, 1, pr, page, probeMsg{}) })
	})
	net.SetHandler(1, func(int, fabric.Message) {
		arrived = true
		requester.Unpark()
	})
	var out cost
	requester = eng.Spawn("probe", func(t *sim.Task) {
		c := start()
		for i := 0; i < ops; i++ {
			arrived = false
			pr = net.PreparePageRecv(t, 0, 1)
			net.Send(t, 1, 0, probeMsg{})
			for !arrived {
				t.Park("page")
			}
			pr.Claim(t)
		}
		out = c.stop(ops)
	})
	return out, eng.Run()
}

// --- dsm --------------------------------------------------------------------

// twoNodeDSM is the smallest cluster fragment a protocol run needs: an
// engine, a fabric and one manager with its messages routed.
func twoNodeDSM(proto dsm.Protocol) (*sim.Engine, *dsm.Manager) {
	eng := sim.NewEngine(1)
	eng.ConfigureLanes(2, 1)
	net := fabric.New(eng, fabric.DefaultParams(2))
	params := dsm.DefaultParams()
	params.Protocol = proto
	m := dsm.New(eng, net, params, 0, 0, 2, nil)
	for node := 0; node < 2; node++ {
		node := node
		net.SetHandler(node, func(src int, msg fabric.Message) {
			if !m.HandleMessage(node, src, msg) {
				panic("probes: unroutable message")
			}
		})
	}
	return eng, m
}

// dsmFast is the local-hit path: EnsurePage on pages the node already
// maps with sufficient rights.
func dsmFast(ops int) (cost, error) {
	const pages = 64
	eng, m := twoNodeDSM(dsm.WriteInvalidate)
	var out cost
	eng.Spawn("probe", func(t *sim.Task) {
		ctx := dsm.Ctx{Node: 0, Site: "probe"}
		for i := 0; i < pages; i++ {
			m.EnsurePage(t, ctx, mem.Addr(i)*mem.PageSize, true)
		}
		c := start()
		for i := 0; i < ops; i++ {
			m.EnsurePage(t, ctx, mem.Addr(i%pages)*mem.PageSize, false)
		}
		out = c.stop(ops)
	})
	return out, eng.Run()
}

// dsmSlow is the full protocol path under one policy: two nodes take
// write faults on one page in turn, so every operation revokes the other
// copy and moves the page.
func dsmSlow(proto dsm.Protocol) func(int) (cost, error) {
	return func(ops int) (cost, error) {
		eng, m := twoNodeDSM(proto)
		var out cost
		eng.Spawn("probe", func(t *sim.Task) {
			m.EnsurePage(t, dsm.Ctx{Node: 0, Site: "seed"}, 0, true)
			c := start()
			for i := 0; i < ops; i++ {
				m.EnsurePage(t, dsm.Ctx{Node: 1 - i%2, Site: "probe"}, 0, true)
			}
			out = c.stop(ops)
		})
		return out, eng.Run()
	}
}

// dsmPrefetch is the batched read-replica hint, per page granted: the
// origin fills a range, a thread on the other node prefetches all of it.
func dsmPrefetch(ops int) (cost, error) {
	var out cost
	_, err := dex.NewCluster(2).Run(func(t *dex.Thread) error {
		size := ops * dex.PageSize
		addr, err := t.Mmap(uint64(size), dex.ProtRead|dex.ProtWrite, "probe")
		if err != nil {
			return err
		}
		for p := 0; p < ops; p++ {
			if err := t.WriteUint64(addr+dex.Addr(p)*dex.PageSize, 1); err != nil {
				return err
			}
		}
		if err := t.Migrate(1); err != nil {
			return err
		}
		c := start()
		granted, err := t.Prefetch(addr, size)
		if err != nil {
			return err
		}
		if granted != ops {
			return fmt.Errorf("prefetch granted %d of %d pages", granted, ops)
		}
		out = c.stop(ops)
		return t.MigrateBack()
	})
	return out, err
}

// --- mem --------------------------------------------------------------------

// tlbConflictStride makes successive lookups collide in the direct-mapped
// software TLB (512 slots), so every one misses and walks the table.
const tlbConflictStride = 512

var sinkPTE *mem.PTE

// memLookup is PageTable.LookupFast over 64 mapped pages spaced stride
// apart: stride 1 hits the TLB every time, the conflict stride never does.
func memLookup(stride uint64) func(int) (cost, error) {
	return func(ops int) (cost, error) {
		const pages = 64
		var pt mem.PageTable
		for p := uint64(0); p < pages; p++ {
			pt.Map(p*stride, mem.NewFrame(), true)
		}
		c := start()
		for i := 0; i < ops; i++ {
			sinkPTE = pt.LookupFast(uint64(i%pages)*stride, false)
		}
		out := c.stop(ops)
		if sinkPTE == nil {
			return out, fmt.Errorf("lookup of a mapped page failed")
		}
		return out, nil
	}
}

// --- core and futex ---------------------------------------------------------

// coreMigrate is a warm migrate-out/migrate-back pair.
func coreMigrate(ops int) (cost, error) {
	var out cost
	_, err := dex.NewCluster(2).Run(func(t *dex.Thread) error {
		if err := t.Migrate(1); err != nil { // starts the remote worker
			return err
		}
		if err := t.MigrateBack(); err != nil {
			return err
		}
		c := start()
		for i := 0; i < ops; i++ {
			if err := t.Migrate(1); err != nil {
				return err
			}
			if err := t.MigrateBack(); err != nil {
				return err
			}
		}
		out = c.stop(ops)
		return nil
	})
	return out, err
}

// coreReadHit is Thread.ReadUint64 on a resident page: access check,
// translation, copy.
func coreReadHit(ops int) (cost, error) {
	const pages = 64
	var out cost
	_, err := dex.NewCluster(1).Run(func(t *dex.Thread) error {
		addr, err := t.Mmap(pages*dex.PageSize, dex.ProtRead|dex.ProtWrite, "probe")
		if err != nil {
			return err
		}
		if err := t.Write(addr, make([]byte, pages*dex.PageSize)); err != nil {
			return err
		}
		c := start()
		for i := 0; i < ops; i++ {
			if _, err := t.ReadUint64(addr + dex.Addr(i%pages)*dex.PageSize); err != nil {
				return err
			}
		}
		out = c.stop(ops)
		return nil
	})
	return out, err
}

// futexBarrier is one round of an eight-thread dex.Barrier, four threads
// on each of two nodes, so arrivals and wake-ups cross the fabric.
func futexBarrier(ops int) (cost, error) {
	const threads = 8
	var out cost
	_, err := dex.NewCluster(2).Run(func(main *dex.Thread) error {
		bar, err := dex.NewBarrier(main, threads)
		if err != nil {
			return err
		}
		ws := make([]*dex.Thread, threads)
		for id := range ws {
			id := id
			ws[id], err = main.Spawn(func(t *dex.Thread) error {
				if err := t.Migrate(id % 2); err != nil {
					return err
				}
				if err := bar.Wait(t); err != nil { // all threads in place
					return err
				}
				var c clock
				if id == 0 {
					c = start()
				}
				for i := 0; i < ops; i++ {
					if err := bar.Wait(t); err != nil {
						return err
					}
				}
				if id == 0 {
					out = c.stop(ops)
				}
				return t.MigrateBack()
			})
			if err != nil {
				return err
			}
		}
		var firstErr error
		for _, w := range ws {
			if err := main.Join(w); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	})
	return out, err
}

// --- obs --------------------------------------------------------------------

// obsSpan is SpanAt on a lane view of a recorder. With recording off the
// recorder is nil and the probe measures the disabled path every
// instrumentation site pays: one branch.
func obsSpan(on bool) func(int) (cost, error) {
	return func(ops int) (cost, error) {
		var rec *obs.Recorder
		if on {
			rec = obs.NewRecorder()
			rec.ConfigureLanes(2)
		}
		view := rec.OnLane(1)
		c := start()
		for i := 0; i < ops; i++ {
			view.SpanAt("probe", "span", 1, i, time.Duration(i), time.Microsecond)
		}
		return c.stop(ops), nil
	}
}

package exper

import (
	"fmt"
	"slices"
	"time"

	"dex"
	"dex/internal/apps"
	"dex/internal/core"
	"dex/internal/dsm"
	"dex/internal/fabric"
	"dex/internal/mem"
)

// runMachine builds a machine from params, runs main as a process at node
// 0, and returns the report.
func runMachine(params core.Params, main func(*core.Thread) error) core.Report {
	m := core.NewMachine(params)
	p := m.NewProcess(0, main)
	if err := m.Run(); err != nil {
		panic(fmt.Sprintf("exper: microbenchmark run failed: %v", err))
	}
	return p.Report()
}

// fanOut spawns one worker per entry of nodes; each migrates to its node, runs
// body there (i is its index; a nil body does nothing) and migrates back. It
// joins them all and returns when the first of them arrived at its node,
// which is where the microbenchmarks measure their span from. A worker's
// error is the process's, which runMachine reports.
func fanOut(th *core.Thread, nodes []int, body func(w *core.Thread, i int) error) (time.Duration, error) {
	var firstArrival time.Duration
	arrived := false
	var ws []*core.Thread
	for i, node := range nodes {
		w, err := th.Spawn(func(w *core.Thread) error {
			if err := w.Migrate(node); err != nil {
				return err
			}
			if !arrived {
				arrived, firstArrival = true, w.Now()
			}
			if body != nil {
				if err := body(w, i); err != nil {
					return err
				}
			}
			return w.MigrateBack()
		})
		if err != nil {
			return 0, err
		}
		ws = append(ws, w)
	}
	for _, w := range ws {
		th.Join(w)
	}
	return firstArrival, nil
}

// coalescingResult is the value of one A1 cell.
type coalescingResult struct {
	Span          time.Duration
	Faults, Joins uint64
	Nacks         uint64
}

func runCoalescing(disable bool) coalescingResult {
	params := core.DefaultParams(2)
	params.DSM.DisableCoalescing = disable
	var span time.Duration
	rep := runMachine(params, func(th *core.Thread) error {
		const pages = 64
		const threads = 8
		addr, err := th.Mmap(pages*mem.PageSize, mem.ProtRead|mem.ProtWrite, "hot")
		if err != nil {
			return err
		}
		for i := 0; i < pages; i++ {
			if err := th.WriteUint64(addr+mem.Addr(i*mem.PageSize), uint64(i)); err != nil {
				return err
			}
		}
		// All threads sweep the same pages from node 1: with coalescing one
		// leader fetches each page; without it every thread runs the
		// protocol.
		start, err := fanOut(th, slices.Repeat([]int{1}, threads), func(w *core.Thread, _ int) error {
			for i := 0; i < pages; i++ {
				if _, err := w.ReadUint64(addr + mem.Addr(i*mem.PageSize)); err != nil {
					return err
				}
			}
			return nil
		})
		span = th.Now() - start
		return err
	})
	return coalescingResult{span, rep.DSM.Faults(), rep.DSM.FollowerJoins, rep.DSM.Nacks}
}

// AblationCoalescing (A1) measures the leader/follower fault coalescing of
// §III-C: many threads on one remote node touching the same fresh pages.
func AblationCoalescing(r *Runner, _ apps.Size) Table {
	configs := []bool{false, true}
	results := Sweep(r, keyf[bool]("ablation/coalescing/disable=%t"), configs, runCoalescing)
	t := Table{
		ID:     "A1",
		Title:  "leader/follower fault coalescing (8 threads sweeping 64 shared pages)",
		Header: []string{"config", "span", "lead-faults", "follower-joins", "nacks"},
	}
	for i, disable := range configs {
		res := results[i]
		name := "coalescing on (paper design)"
		if disable {
			name = "coalescing off"
		}
		t.Rows = append(t.Rows, []string{name, res.Span.Round(time.Microsecond).String(),
			fmt.Sprint(res.Faults), fmt.Sprint(res.Joins), fmt.Sprint(res.Nacks)})
	}
	t.Notes = append(t.Notes,
		"without coalescing every thread runs the protocol itself: redundant transactions are NACKed and retried")
	return t
}

// rdmaResult is the value of one A2 cell.
type rdmaResult struct {
	Span  time.Duration
	Stats fabric.Stats
}

func runRDMA(mode fabric.PageMode) rdmaResult {
	params := core.DefaultParams(2)
	params.Fabric.Mode = mode
	var span time.Duration
	rep := runMachine(params, func(th *core.Thread) error {
		const pages = 512
		addr, err := th.Mmap(pages*mem.PageSize, mem.ProtRead|mem.ProtWrite, "bulk")
		if err != nil {
			return err
		}
		buf := make([]byte, pages*mem.PageSize)
		for i := range buf {
			buf[i] = byte(i)
		}
		if err := th.Write(addr, buf); err != nil {
			return err
		}
		if err := th.Migrate(1); err != nil {
			return err
		}
		start := th.Now()
		if err := th.Read(addr, buf); err != nil {
			return err
		}
		span = th.Now() - start
		return th.MigrateBack()
	})
	return rdmaResult{span, rep.Net}
}

// AblationRDMA (A2) compares the hybrid RDMA sink (§III-E) against per-page
// dynamic registration and the VERB-only path on a page-transfer stress.
func AblationRDMA(r *Runner, _ apps.Size) Table {
	modes := []fabric.PageMode{fabric.HybridSink, fabric.PerPageReg, fabric.VerbOnly}
	results := Sweep(r, keyf[fabric.PageMode]("ablation/rdma/mode=%s"), modes, runRDMA)
	t := Table{
		ID:     "A2",
		Title:  "page-transfer strategies: pulling 512 pages (2 MB) to a remote node",
		Header: []string{"mode", "span", "per-page", "memcpy-bytes", "registrations"},
	}
	for i, mode := range modes {
		res := results[i]
		t.Rows = append(t.Rows, []string{
			mode.String(), res.Span.Round(time.Microsecond).String(),
			(res.Span / 512).Round(100 * time.Nanosecond).String(),
			fmt.Sprint(res.Stats.MemcpyBytes), fmt.Sprint(res.Stats.Registrations),
		})
	}
	t.Notes = append(t.Notes, "the paper's hybrid sink trades one memcpy for avoiding per-page registration (§III-E)")
	return t
}

// vmaResult is the value of one A3 cell.
type vmaResult struct {
	Span       time.Duration
	Queries    uint64
	SmallSends uint64
}

func runVMA(eager bool) vmaResult {
	params := core.DefaultParams(4)
	params.EagerVMASync = eager
	var span time.Duration
	rep := runMachine(params, func(th *core.Thread) error {
		// Expand to every node first so workers exist.
		remote := []int{1, 2, 3}
		if _, err := fanOut(th, remote, nil); err != nil {
			return err
		}
		// The origin maps many regions; remote threads touch only one.
		const regions = 128
		addrs := make([]mem.Addr, regions)
		start := th.Now()
		for i := range addrs {
			a, err := th.Mmap(mem.PageSize, mem.ProtRead|mem.ProtWrite, "region")
			if err != nil {
				return err
			}
			addrs[i] = a
			if err := th.WriteUint64(a, uint64(i)); err != nil {
				return err
			}
		}
		_, err := fanOut(th, remote, func(w *core.Thread, i int) error {
			_, err := w.ReadUint64(addrs[remote[i]])
			return err
		})
		span = th.Now() - start
		return err
	})
	return vmaResult{span, rep.VMAQueries, rep.Net.SmallSends}
}

// AblationVMA (A3) compares on-demand VMA synchronization (§III-D) against
// eager broadcast on an mmap-heavy workload where remote nodes touch only a
// few of the mappings.
func AblationVMA(r *Runner, _ apps.Size) Table {
	configs := []bool{false, true}
	results := Sweep(r, keyf[bool]("ablation/vma/eager=%t"), configs, runVMA)
	t := Table{
		ID:     "A3",
		Title:  "VMA synchronization: 128 mmaps at the origin, 3 remote nodes touching one region each",
		Header: []string{"policy", "span", "on-demand-queries", "small-messages"},
	}
	for i, eager := range configs {
		res := results[i]
		name := "on-demand (paper design)"
		if eager {
			name = "eager broadcast"
		}
		t.Rows = append(t.Rows, []string{name, res.Span.Round(time.Microsecond).String(),
			fmt.Sprint(res.Queries), fmt.Sprint(res.SmallSends)})
	}
	return t
}

// upgradeResult is the value of one A4 cell.
type upgradeResult struct {
	Span      time.Duration
	Grants    uint64
	PageBytes uint64
}

func runUpgrade(alwaysSend bool) upgradeResult {
	params := core.DefaultParams(2)
	params.DSM.AlwaysSendData = alwaysSend
	var span time.Duration
	rep := runMachine(params, func(th *core.Thread) error {
		const pages = 256
		addr, err := th.Mmap(pages*mem.PageSize, mem.ProtRead|mem.ProtWrite, "rw")
		if err != nil {
			return err
		}
		for i := 0; i < pages; i++ {
			if err := th.WriteUint64(addr+mem.Addr(i*mem.PageSize), 1); err != nil {
				return err
			}
		}
		if err := th.Migrate(1); err != nil {
			return err
		}
		start := th.Now()
		// Read-then-write each page: the write is an upgrade of a
		// fresh copy.
		for i := 0; i < pages; i++ {
			a := addr + mem.Addr(i*mem.PageSize)
			v, err := th.ReadUint64(a)
			if err != nil {
				return err
			}
			if err := th.WriteUint64(a, v+1); err != nil {
				return err
			}
		}
		span = th.Now() - start
		return th.MigrateBack()
	})
	return upgradeResult{span, rep.DSM.OwnershipGrants, rep.Net.PageBytes}
}

// AblationUpgrade (A4) measures ownership-only grants (§III-B): a remote
// node that read a page and then writes it should not receive the data
// again.
func AblationUpgrade(r *Runner, _ apps.Size) Table {
	configs := []bool{false, true}
	results := Sweep(r, keyf[bool]("ablation/upgrade/always-send=%t"), configs, runUpgrade)
	t := Table{
		ID:     "A4",
		Title:  "write upgrades of fresh replicas: 256 read-then-write pages from a remote node",
		Header: []string{"config", "span", "ownership-only-grants", "page-bytes-on-wire"},
	}
	for i, always := range configs {
		res := results[i]
		name := "ownership-only grants (paper design)"
		if always {
			name = "always resend data"
		}
		t.Rows = append(t.Rows, []string{name, res.Span.Round(time.Microsecond).String(),
			fmt.Sprint(res.Grants), fmt.Sprint(res.PageBytes)})
	}
	return t
}

// protoResult is the value of one A6 or A7 cell.
type protoResult struct {
	Span          time.Duration
	Faults        uint64
	PageSends     uint64
	PageTransfers uint64
	Nacks         uint64
	DirServes     uint64
	OriginServes  uint64
	Forwards      uint64
	ChainHints    uint64
}

// protoStats extracts the shared A6/A7 counters from a DSM report.
func protoStats(span time.Duration, d dsm.Stats, net fabric.Stats) protoResult {
	return protoResult{
		Span:          span,
		Faults:        d.Faults(),
		PageSends:     net.PageSends,
		PageTransfers: d.PageTransfers,
		Nacks:         d.Nacks,
		DirServes:     d.DirServes,
		OriginServes:  d.OriginServes,
		Forwards:      d.Forwards,
		ChainHints:    d.ChainHints,
	}
}

// runProtocolPingPong bounces exclusive ownership of a small page set
// between two non-origin nodes — the write-local pattern the home-migrate
// policy targets. Under write-invalidate every ownership change routes
// through the (otherwise idle) origin and pulls the page home first; under
// home-migrate the current writer serves the next writer directly.
func runProtocolPingPong(proto dsm.Protocol) protoResult {
	params := core.DefaultParams(3)
	params.DSM.Protocol = proto
	const pages = 8
	const rounds = 24
	var span time.Duration
	rep := runMachine(params, func(th *core.Thread) error {
		addr, err := th.Mmap(pages*mem.PageSize, mem.ProtRead|mem.ProtWrite, "pingpong")
		if err != nil {
			return err
		}
		start, err := fanOut(th, []int{1, 2}, func(w *core.Thread, _ int) error {
			for r := 0; r < rounds; r++ {
				for p := 0; p < pages; p++ {
					a := addr + mem.Addr(p*mem.PageSize)
					v, err := w.ReadUint64(a)
					if err != nil {
						return err
					}
					if err := w.WriteUint64(a, v+1); err != nil {
						return err
					}
				}
				w.Compute(3 * time.Microsecond)
			}
			return nil
		})
		span = th.Now() - start
		return err
	})
	return protoStats(span, rep.DSM, rep.Net)
}

// runOriginContention drives one directory transaction per page per round
// from every node at once: node i rewrites its private page slice while its
// ring neighbor re-reads it, so each round invalidates the reader's replicas
// and faults them back in. Under the centralized policies every one of those
// transactions dispatches at a single serving node; the sharded directory
// serves each slice at its current home — the slice's writer — spreading
// dispatch load toward 1/nodes.
func runOriginContention(proto dsm.Protocol) protoResult {
	const nodes = 4
	const pagesPer = 4
	const rounds = 12
	params := core.DefaultParams(nodes)
	params.DSM.Protocol = proto
	var span time.Duration
	rep := runMachine(params, func(th *core.Thread) error {
		addr, err := th.Mmap(nodes*pagesPer*mem.PageSize, mem.ProtRead|mem.ProtWrite, "contention")
		if err != nil {
			return err
		}
		start, err := fanOut(th, []int{0, 1, 2, 3}, func(w *core.Thread, node int) error {
			own := addr + mem.Addr(node*pagesPer*mem.PageSize)
			next := addr + mem.Addr(((node+1)%nodes)*pagesPer*mem.PageSize)
			for r := 0; r < rounds; r++ {
				for p := 0; p < pagesPer; p++ {
					a := own + mem.Addr(p*mem.PageSize)
					v, err := w.ReadUint64(a)
					if err != nil {
						return err
					}
					if err := w.WriteUint64(a, v+1); err != nil {
						return err
					}
				}
				w.Compute(2 * time.Microsecond)
				for p := 0; p < pagesPer; p++ {
					if _, err := w.ReadUint64(next + mem.Addr(p*mem.PageSize)); err != nil {
						return err
					}
				}
				w.Compute(2 * time.Microsecond)
			}
			return nil
		})
		span = th.Now() - start
		return err
	})
	return protoStats(span, rep.DSM, rep.Net)
}

// AblationProtocol (A6) compares the coherence policies behind the
// directory/policy/transport split: the paper's origin-served
// write-invalidate protocol against the home-migrate variant, on the
// ownership ping-pong microbenchmark and on two of the applications.
func AblationProtocol(r *Runner, _ apps.Size) Table {
	r = ensure(r)
	protos := []dsm.Protocol{dsm.WriteInvalidate, dsm.HomeMigrate}
	appNames := []string{"kmn", "bp"}
	appCells := make(map[string][]*Cell, len(appNames))
	for _, name := range appNames {
		app, _ := apps.ByName(name)
		for _, proto := range protos {
			appCells[name] = append(appCells[name], r.SubmitApp(app, apps.Config{
				Nodes: 4, Variant: apps.Optimized, Size: apps.SizeTest,
				Opts: []dex.Option{dex.WithProtocol(proto)},
			}))
		}
	}
	pings := Sweep(r, keyf[dsm.Protocol]("ablation/protocol/pingpong/proto=%s"), protos, runProtocolPingPong)
	t := Table{
		ID:     "A6",
		Title:  "coherence policy: write-invalidate (paper §III-B) vs home-migrate (home follows the last writer)",
		Header: []string{"workload", "policy", "span", "lead-faults", "page-sends", "pulls-to-home", "nacks"},
	}
	for i, proto := range protos {
		res := pings[i]
		t.Rows = append(t.Rows, []string{"pingpong", proto.String(),
			res.Span.Round(time.Microsecond).String(), fmt.Sprint(res.Faults),
			fmt.Sprint(res.PageSends), fmt.Sprint(res.PageTransfers), fmt.Sprint(res.Nacks)})
	}
	for _, name := range appNames {
		for i, proto := range protos {
			res, err := WaitApp(appCells[name][i])
			if err != nil {
				t.Rows = append(t.Rows, []string{name, proto.String(), "err: " + err.Error()})
				continue
			}
			t.Rows = append(t.Rows, []string{name, proto.String(),
				res.Elapsed.Round(time.Microsecond).String(), fmt.Sprint(res.Report.DSM.Faults()),
				fmt.Sprint(res.Report.Net.PageSends), fmt.Sprint(res.Report.DSM.PageTransfers),
				fmt.Sprint(res.Report.DSM.Nacks)})
		}
	}
	t.Notes = append(t.Notes,
		"pulls-to-home counts pages fetched back from a remote writer before re-granting; home-migrate serves at the writer so it never pulls",
		"every policy runs under fault injection: dexchaos selects with -protocol (wi | home | dist), with -restart for crash campaigns")
	return t
}

// originShare renders OriginServes/DirServes, the fraction of directory
// dispatches the origin node absorbed.
func originShare(res protoResult) string {
	if res.DirServes == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f", float64(res.OriginServes)/float64(res.DirServes))
}

// AblationDist (A7) measures what sharding the ownership directory buys:
// the same ping-pong and a symmetric all-nodes contention microbenchmark
// across all three policies, then the full application suite under
// write-invalidate vs the sharded directory. The headline column is
// origin-share — the fraction of directory dispatches absorbed by the origin
// node, 1.00 under the centralized paper protocol and ~1/nodes once the
// directory is sharded and authority follows the writers.
func AblationDist(r *Runner, _ apps.Size) Table {
	r = ensure(r)
	protos := []dsm.Protocol{dsm.WriteInvalidate, dsm.HomeMigrate, dsm.DistributedManager}
	suiteProtos := []dsm.Protocol{dsm.WriteInvalidate, dsm.DistributedManager}
	all := apps.All()
	appCells := make([][]*Cell, len(all))
	for i, app := range all {
		for _, proto := range suiteProtos {
			appCells[i] = append(appCells[i], r.SubmitApp(app, apps.Config{
				Nodes: 4, Variant: apps.Optimized, Size: apps.SizeTest,
				Opts: []dex.Option{dex.WithProtocol(proto)},
			}))
		}
	}
	t := Table{
		ID:     "A7",
		Title:  "sharded ownership directory (distributed-manager) vs centralized policies",
		Header: []string{"workload", "policy", "span", "lead-faults", "dir-serves", "origin-share", "forwards", "hints"},
	}
	for _, mb := range []struct {
		name, key string
		run       func(dsm.Protocol) protoResult
	}{
		{"pingpong", "ablation/protocol/pingpong/proto=%s", runProtocolPingPong},
		{"contention", "ablation/dist/contention/proto=%s", runOriginContention},
	} {
		for i, res := range Sweep(r, keyf[dsm.Protocol](mb.key), protos, mb.run) {
			t.Rows = append(t.Rows, []string{mb.name, protos[i].String(),
				res.Span.Round(time.Microsecond).String(), fmt.Sprint(res.Faults),
				fmt.Sprint(res.DirServes), originShare(res),
				fmt.Sprint(res.Forwards), fmt.Sprint(res.ChainHints)})
		}
	}
	for i, app := range all {
		for j, proto := range suiteProtos {
			res, err := WaitApp(appCells[i][j])
			if err != nil {
				t.Rows = append(t.Rows, []string{app.Name, proto.String(), "err: " + err.Error()})
				continue
			}
			d := res.Report.DSM
			t.Rows = append(t.Rows, []string{app.Name, proto.String(),
				res.Elapsed.Round(time.Microsecond).String(), fmt.Sprint(d.Faults()),
				fmt.Sprint(d.DirServes), originShare(protoResult{DirServes: d.DirServes, OriginServes: d.OriginServes}),
				fmt.Sprint(d.Forwards), fmt.Sprint(d.ChainHints)})
		}
	}
	t.Notes = append(t.Notes,
		"origin-share is OriginServes/DirServes: 1.00 means one node dispatches every directory transaction, 1/nodes is a perfect spread",
		"forwards counts requests bounced one hop down a forwarding chain; hints counts the path-compression updates that collapse chains to one hop")
	return t
}

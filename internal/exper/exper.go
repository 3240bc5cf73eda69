// Package exper regenerates every table and figure of the paper's
// evaluation (§V), plus the ablation studies DESIGN.md calls out. Each
// experiment returns a Table with the same rows/series the paper reports;
// cmd/dexbench prints them and bench_test.go wraps them as benchmarks.
//
// Experiments are structured as submit-then-assemble over a shared Runner
// (see cell.go): each first submits every simulation cell it needs, then
// builds its table by waiting on the cells in a fixed order. The table text
// therefore never depends on the pool width, and cells shared between
// experiments (Table II and Figure 3 read the same migration
// microbenchmark) run once per harness invocation.
package exper

import (
	"fmt"
	"strings"
	"time"

	"dex"
	"dex/internal/apps"
	"dex/internal/core"
	"dex/internal/dsm"
	"dex/internal/fabric"
	"dex/internal/mem"
	"dex/internal/obs"
	"dex/internal/sim"
)

// Table is one regenerated experiment artifact.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Render formats the table as aligned text.
func (t Table) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "=== %s: %s ===\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i < len(widths) {
				fmt.Fprintf(&sb, "%-*s  ", widths[i], c)
			} else {
				sb.WriteString(c)
			}
		}
		sb.WriteByte('\n')
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// Experiment couples an id with its runner. Run submits its cells to r
// (a nil r gets a private sequential runner) and assembles the table; a
// single Runner shared across experiments memoizes common cells.
type Experiment struct {
	ID   string
	Desc string
	Run  func(r *Runner, size apps.Size) Table
}

// All returns every experiment in evaluation order.
func All() []Experiment {
	return []Experiment{
		{ID: "scaleup", Desc: "E0 §V-B inherent scalability on one scale-up machine", Run: ScaleUp},
		{ID: "table1", Desc: "E1 Table I adaptation complexity", Run: Table1},
		{ID: "figure2", Desc: "E2 Figure 2 application scalability (1-8 nodes, initial vs optimized)", Run: Figure2},
		{ID: "table2", Desc: "E3 Table II thread migration latency", Run: Table2},
		{ID: "figure3", Desc: "E4 Figure 3 migration latency breakdown", Run: Figure3},
		{ID: "faults", Desc: "E5 §V-D page fault handling (bimodal latency)", Run: FaultHandling},
		{ID: "ablation-coalescing", Desc: "A1 leader/follower fault coalescing on/off", Run: AblationCoalescing},
		{ID: "ablation-rdma", Desc: "A2 RDMA sink vs per-page registration vs VERB-only", Run: AblationRDMA},
		{ID: "ablation-vma", Desc: "A3 on-demand vs eager VMA synchronization", Run: AblationVMA},
		{ID: "ablation-upgrade", Desc: "A4 ownership-only grants on/off", Run: AblationUpgrade},
		{ID: "ablation-alignment", Desc: "A5 §IV-B object alignment: packed vs selective vs blanket", Run: AblationAlignment},
		{ID: "ablation-protocol", Desc: "A6 coherence policy: write-invalidate vs home-migrate", Run: AblationProtocol},
		{ID: "ablation-dist", Desc: "A7 sharded ownership directory: origin dispatch share, forwarding, chain compression", Run: AblationDist},
		{ID: "serve", Desc: "S1 serving SLO: tail latency and goodput under crash/restart", Run: ServeSLO},
	}
}

// ByID looks up an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// ScaleUp reproduces the paper's motivation check (§V-B first paragraph):
// on a single scale-up machine with many cores, completion times are
// inversely proportional to the thread count, confirming the applications
// are inherently scalable.
func ScaleUp(r *Runner, size apps.Size) Table {
	r = ensure(r)
	t := Table{
		ID:     "E0",
		Title:  "inherent scalability on a 32-core scale-up node (completion time vs threads)",
		Header: []string{"app", "t=1", "t=2", "t=4", "t=8", "t=16", "t=32", "speedup(32)"},
	}
	threadCounts := []int{1, 2, 4, 8, 16, 32}
	all := apps.All()
	cells := make([][]*Cell, len(all))
	for i, app := range all {
		for _, threads := range threadCounts {
			// The paper's scale-up box is an 8-socket machine: memory
			// bandwidth scales with the sockets, so the 32-core node gets
			// four single-socket buses' worth.
			cells[i] = append(cells[i], r.SubmitApp(app, apps.Config{
				Nodes: 1, ThreadsPerNode: threads, Variant: apps.Initial, Size: size,
				Opts: []dex.Option{dex.WithCoresPerNode(32), dex.WithMemBandwidth(48e9)},
			}))
		}
	}
	for i, app := range all {
		row := []string{app.Name}
		var t1, t32 time.Duration
		for j, threads := range threadCounts {
			res, err := WaitApp(cells[i][j])
			if err != nil {
				row = append(row, "err:"+err.Error())
				continue
			}
			if threads == 1 {
				t1 = res.Elapsed
			}
			if threads == 32 {
				t32 = res.Elapsed
			}
			row = append(row, res.Elapsed.Round(10*time.Microsecond).String())
		}
		if t32 > 0 {
			row = append(row, fmt.Sprintf("%.2fx", float64(t1)/float64(t32)))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"completion time should fall roughly inversely with threads (memory-bound apps saturate the bus earlier)")
	return t
}

// table1Entries holds Table I's call-site counts, audited from the
// implementations in internal/apps: initial = migration calls inserted (one
// in + one back per thread, per region for the OpenMP codes); optimized =
// additional sites touched by the §IV optimizations (alignment, staging,
// separated globals); migrationSites = Migrate/MigrateBack call sites in the
// port's source file, which TestCountAPISites counts again with go/parser.
var table1Entries = []struct {
	name, impl     string
	regions        int
	initialSites   int
	optimizedSites int
	migrationSites int
}{
	{"grp", "pthread", 1, 2, 6, 2},
	{"kmn", "pthread", 1, 2, 7, 2},
	{"bt", "OpenMP (15)", 15, 2, 5, 2},
	{"ep", "OpenMP (1)", 1, 2, 4, 2},
	{"ft", "OpenMP (7)", 7, 2, 3, 2},
	{"blk", "pthread", 1, 2, 3, 2},
	{"bfs", "pthread+NUMA", 1, 2, 9, 2},
	{"bp", "pthread+NUMA", 1, 2, 8, 2},
}

// Table1 reproduces Table I: the effort to adapt each application. The
// paper counts changed source lines; this reproduction counts the DeX API
// call sites each port requires — the direct analogue of inserted lines —
// and validates the per-thread migration structure against a live run.
func Table1(r *Runner, size apps.Size) Table {
	r = ensure(r)
	t := Table{
		ID:    "E1",
		Title: "adaptation complexity (DeX API call sites; paper counts changed LoC)",
		Header: []string{"app", "impl", "regions", "initial-sites", "optimized-sites",
			"static-migration-sites", "measured-migrations(2 nodes)"},
	}
	cells := make([]*Cell, len(table1Entries))
	for i, e := range table1Entries {
		app, _ := apps.ByName(e.name)
		cells[i] = r.SubmitApp(app, apps.Config{Nodes: 2, Variant: apps.Initial, Size: apps.SizeTest})
	}
	for i, e := range table1Entries {
		res, err := WaitApp(cells[i])
		measured := "err"
		if err == nil {
			measured = fmt.Sprintf("%d (%d threads x %d)",
				res.Report.Migrations, res.Threads, res.Report.Migrations/res.Threads)
		}
		t.Rows = append(t.Rows, []string{
			e.name, e.impl, fmt.Sprint(e.regions),
			fmt.Sprint(e.initialSites), fmt.Sprint(e.optimizedSites), fmt.Sprint(e.migrationSites), measured,
		})
	}
	t.Notes = append(t.Notes,
		"paper: 110 lines added / 42 removed across all eight apps (~1.1% of app code); optimization added 246 lines",
		"the OpenMP codes migrate per parallel region, so measured migrations = threads x 2 x regions x timesteps")
	return t
}

// Figure2 reproduces Figure 2: performance of every application on 1-8
// nodes, Initial and Optimized, normalized to the unmodified application on
// a single node — the Initial port at n=1, whose migrations are no-ops.
func Figure2(r *Runner, size apps.Size) Table {
	r = ensure(r)
	t := Table{
		ID:     "E2",
		Title:  "application scalability normalized to single-node unmodified (Figure 2)",
		Header: []string{"app", "variant", "n=1", "n=2", "n=4", "n=8"},
	}
	nodes := []int{1, 2, 4, 8}
	variants := []apps.Variant{apps.Initial, apps.Optimized}
	all := apps.All()
	varCells := make(map[int]map[apps.Variant][]*Cell, len(all))
	for i, app := range all {
		varCells[i] = make(map[apps.Variant][]*Cell, len(variants))
		for _, variant := range variants {
			for _, n := range nodes {
				varCells[i][variant] = append(varCells[i][variant],
					r.SubmitApp(app, apps.Config{Nodes: n, Variant: variant, Size: size}))
			}
		}
	}
	for i, app := range all {
		base, err := WaitApp(varCells[i][apps.Initial][0])
		if err != nil {
			t.Rows = append(t.Rows, []string{app.Name, apps.Initial.String(), "err: " + err.Error()})
			continue
		}
		for _, variant := range variants {
			row := []string{app.Name, variant.String()}
			for j := range nodes {
				res, err := WaitApp(varCells[i][variant][j])
				if err != nil {
					row = append(row, "err")
					continue
				}
				row = append(row, fmt.Sprintf("%.2f", float64(base.Elapsed)/float64(res.Elapsed)))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	t.Notes = append(t.Notes,
		"paper shape: EP/BLK/BP scale initial; GRP/KMN/BT/FT/BFS degrade initial;",
		"after optimization six of eight (GRP KMN BT EP BLK BP) beat single-machine; FT and BFS stay below 1;",
		"BP is super-linear from 1 to 2 nodes (memory-channel relief)")
	return t
}

// migrationMachine runs the §V-D migration microbenchmark: a thread
// repeatedly migrates to a remote node and back.
func migrationMachine(trips int) []core.MigrationRecord {
	return runMachine(core.DefaultParams(2), func(th *core.Thread) error {
		for i := 0; i < trips; i++ {
			if err := th.Migrate(1); err != nil {
				return err
			}
			th.Compute(time.Millisecond) // "migrates a thread every second", scaled
			if err := th.MigrateBack(); err != nil {
				return err
			}
			th.Compute(time.Millisecond)
		}
		return nil
	}).MigrationRecords
}

// migrationRecords memoizes the migration microbenchmark; Table II and
// Figure 3 both read this one cell. Ten round trips cover Table II's warm
// average, and the records of the first trips — all Figure 3 needs — are a
// deterministic prefix, so a shorter run would add nothing.
func migrationRecords(r *Runner) []core.MigrationRecord {
	return Sweep(r, keyf[int]("micro/migration-machine/nodes=2/trips=%d"), []int{10}, migrationMachine)[0]
}

// Table2 reproduces Table II: migration latency for the first and second
// forward and backward migrations.
func Table2(r *Runner, _ apps.Size) Table {
	recs := migrationRecords(r)
	t := Table{
		ID:     "E3",
		Title:  "thread migration latency in microseconds (Table II)",
		Header: []string{"migration", "origin-side", "remote-side", "total", "paper-total"},
	}
	us := func(d time.Duration) string { return fmt.Sprintf("%.1f", float64(d)/1000) }
	fwd := 0
	var avgWarm time.Duration
	warmN := 0
	for _, r := range recs {
		if r.Backward {
			continue
		}
		fwd++
		label := fmt.Sprintf("forward #%d", fwd)
		paper := "236.6"
		if r.First {
			paper = "812.1"
		}
		if fwd <= 2 {
			t.Rows = append(t.Rows, []string{label, us(r.Origin), us(r.Total - r.Origin), us(r.Total), paper})
		} else {
			avgWarm += r.Total
			warmN++
		}
	}
	if warmN > 0 {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("forward #3..#%d avg", fwd), "", "", us(avgWarm / time.Duration(warmN)), "236.6"})
	}
	var back time.Duration
	backN := 0
	for _, r := range recs {
		if r.Backward {
			back += r.Total
			backN++
		}
	}
	if backN > 0 {
		t.Rows = append(t.Rows, []string{"backward avg", "", "", us(back / time.Duration(backN)), "24.7"})
	}
	return t
}

// Figure3 reproduces Figure 3: the phase breakdown of migration latency at
// the remote node.
func Figure3(r *Runner, _ apps.Size) Table {
	recs := migrationRecords(r)
	t := Table{
		ID:     "E4",
		Title:  "migration latency breakdown at the remote node in microseconds (Figure 3)",
		Header: []string{"migration", "transfer", "remote-worker", "thread-fork", "context", "schedule", "total-remote"},
	}
	us := func(d time.Duration) string { return fmt.Sprintf("%.1f", float64(d)/1000) }
	fwd := 0
	for _, r := range recs {
		if r.Backward {
			continue
		}
		fwd++
		if fwd > 2 {
			break
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("forward #%d", fwd),
			us(r.Transfer), us(r.Worker), us(r.Fork), us(r.Ctx), us(r.Sched),
			us(r.Transfer + r.Worker + r.Fork + r.Ctx + r.Sched),
		})
	}
	t.Notes = append(t.Notes, "paper: remote worker setup accounts for 620.0µs of the 800µs first-migration remote side")
	return t
}

// faultPingPong runs the §V-D page-fault microbenchmark machine: two
// threads on different nodes continually update one global variable. It
// returns the per-fault protocol latencies, read from a fault recorder.
func faultPingPong() []time.Duration {
	params := core.DefaultParams(2)
	params.Obs = obs.NewFaultRecorder()
	const iters = 20000
	runMachine(params, func(th *core.Thread) error {
		addr, err := th.Mmap(mem.PageSize, mem.ProtRead|mem.ProtWrite, "global")
		if err != nil {
			return err
		}
		ready, err := th.Mmap(mem.PageSize, mem.ProtRead|mem.ProtWrite, "ready")
		if err != nil {
			return err
		}
		w, err := th.Spawn(func(w *core.Thread) error {
			if err := w.Migrate(1); err != nil {
				return err
			}
			// Signal the origin thread that the contention phase begins.
			if err := w.WriteUint32(ready, 1); err != nil {
				return err
			}
			for i := 0; i < iters; i++ {
				v, err := w.ReadUint64(addr)
				if err != nil {
					return err
				}
				if err := w.WriteUint64(addr, v+1); err != nil {
					return err
				}
				w.Compute(500 * time.Nanosecond)
			}
			return w.MigrateBack()
		})
		if err != nil {
			return err
		}
		// Wait for the remote thread before hammering the shared variable.
		for {
			r, err := th.ReadUint32(ready)
			if err != nil {
				return err
			}
			if r == 1 {
				break
			}
			th.Compute(20 * time.Microsecond)
		}
		for i := 0; i < iters; i++ {
			v, err := th.ReadUint64(addr)
			if err != nil {
				return err
			}
			if err := th.WriteUint64(addr, v+1); err != nil {
				return err
			}
			th.Compute(500 * time.Nanosecond)
		}
		return th.Join(w)
	})
	var lat []time.Duration
	for _, ev := range dex.ProfileOf(params.Obs).Events() {
		if ev.Kind != dsm.KindInvalidate {
			lat = append(lat, ev.Latency)
		}
	}
	return lat
}

// FaultHandling reproduces the §V-D page-fault microbenchmark: two threads
// on different nodes continually update one global variable, producing a
// bimodal fault-latency distribution.
func FaultHandling(r *Runner, _ apps.Size) Table {
	r = ensure(r)
	pingPong := r.Submit("micro/fault-pingpong/nodes=2/iters=20000", func() any {
		return faultPingPong()
	})
	rawFetch := r.Submit("micro/raw-fetch/nodes=2", func() any {
		return measureRawFetch()
	})
	lat := pingPong.Wait().([]time.Duration)
	var fast, slow int
	var fastSum, slowSum time.Duration
	for _, l := range lat {
		if l < 40*time.Microsecond {
			fast++
			fastSum += l
		} else {
			slow++
			slowSum += l
		}
	}
	t := Table{
		ID:     "E5",
		Title:  "page fault handling under cross-node contention (§V-D)",
		Header: []string{"metric", "measured", "paper"},
	}
	avg := func(sum time.Duration, n int) string {
		if n == 0 {
			return "-"
		}
		return fmt.Sprintf("%.1fµs", float64(sum/time.Duration(n))/1000)
	}
	t.Rows = append(t.Rows,
		[]string{"protocol faults observed", fmt.Sprint(len(lat)), "154,676 in 30s"},
		[]string{"fast-path faults", fmt.Sprintf("%d (%.1f%%)", fast, 100*float64(fast)/float64(len(lat))), "27.5%"},
		[]string{"fast-path avg latency", avg(fastSum, fast), "19.3µs"},
		[]string{"retried (contended) avg latency", avg(slowSum, slow), "158.8µs"},
		[]string{"raw 4KB page retrieval (messaging layer)", rawFetch.Wait().(time.Duration).String(), "13.6µs"},
	)
	return t
}

// measureRawFetch measures the messaging-layer cost of retrieving one 4 KB
// page (request + RDMA + completion + sink copy), the paper's 13.6 µs.
func measureRawFetch() time.Duration {
	eng := sim.NewEngine(1)
	net := fabric.New(eng, fabric.DefaultParams(2))
	page := make([]byte, mem.PageSize)
	var elapsed time.Duration
	var pr *fabric.PageRecv
	var requester *sim.Task
	done := false
	net.SetHandler(0, func(src int, msg fabric.Message) {
		eng.Spawn("serve", func(t *sim.Task) {
			net.SendPage(t, 0, 1, pr, page, rawMsg{})
		})
	})
	net.SetHandler(1, func(src int, msg fabric.Message) {
		done = true
		requester.Unpark()
	})
	requester = eng.Spawn("req", func(t *sim.Task) {
		start := t.Now()
		pr = net.PreparePageRecv(t, 0, 1)
		net.Send(t, 1, 0, rawMsg{})
		for !done {
			t.Park("raw fetch")
		}
		pr.Claim(t)
		elapsed = t.Now() - start
	})
	if err := eng.Run(); err != nil {
		panic(err)
	}
	return elapsed.Round(100 * time.Nanosecond)
}

type rawMsg struct{}

func (rawMsg) Size() int { return 64 }

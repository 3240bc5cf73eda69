// Command dexchaos runs a fault-injection campaign: one benchmark
// application executed under a sweep of message-drop rates (optionally with
// duplication, delay jitter, and a node crash), emitting a survival/latency
// table. Each cell is an independent deterministic simulation; rows print
// in sweep order, so stdout is byte-identical for every -parallel width and
// every rerun of the same configuration.
//
// Usage:
//
//	dexchaos -app kmn -nodes 3 -drops 0,0.05,0.1,0.2
//	dexchaos -app bfs -nodes 4 -drops 0,0.1 -dup 0.2 -delay 30us
//	dexchaos -app kmn -nodes 3 -drops 0 -crash 3ms
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"dex"
	"dex/internal/apps"
	"dex/internal/chaos"
	"dex/internal/cli"
	"dex/internal/exper"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "dexchaos:", err)
		os.Exit(1)
	}
}

// cell is one campaign run: a drop rate, the plan built for it, and its
// outcome.
type cell struct {
	rate float64
	plan *dex.ChaosPlan
	res  apps.Result
	err  error
	wall time.Duration
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("dexchaos", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cl := cli.Cluster{Nodes: 3, Threads: 4, Seed: 1, Size: "test", Variant: "optimized", Protocol: "wi"}
	cl.Register(fs, map[string]string{
		"nodes":    "cluster size",
		"threads":  "threads per node",
		"seed":     "simulation and fault-plan seed",
		"size":     cli.SizeHelp,
		"protocol": dex.ProtocolHelp(),
		"restart":  "run checkpoint/restart-capable workers: threads lost to a crash resume from their last checkpoint",
	})
	var (
		appName   = fs.String("app", "kmn", "application to stress (see dexrun -list)")
		drops     = fs.String("drops", "0,0.05,0.1,0.2", "comma-separated drop probabilities to sweep")
		dup       = fs.Float64("dup", 0, "duplication probability applied to every cell")
		delay     = fs.Duration("delay", 0, "delay jitter bound applied to half the messages of every cell")
		crash     = fs.Duration("crash", 0, "crash the highest node at this virtual time (0 = no crash)")
		failUnder = fs.Float64("fail-under", 0, "minimum surviving fraction of cells (0..1); exit non-zero below it")
		parallel  = fs.Int("parallel", 0, "max concurrent cells (0 = GOMAXPROCS)")
		quiet     = fs.Bool("quiet", false, "suppress timing output on stderr")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *failUnder < 0 || *failUnder > 1 {
		return fmt.Errorf("-fail-under %g out of range [0,1]", *failUnder)
	}
	if *parallel < 0 {
		return fmt.Errorf("-parallel %d: cannot be negative", *parallel)
	}
	app, ok := apps.ByName(*appName)
	if !ok {
		return fmt.Errorf("unknown application %q (see dexrun -list)", *appName)
	}
	base, err := cl.Resolve(&app)
	if err != nil {
		return err
	}
	var cells []cell
	for _, s := range strings.Split(*drops, ",") {
		r, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			return fmt.Errorf("bad drop rate %q: %v", s, err)
		}
		plan, err := chaos.FlagPlan(cl.Seed, cl.Nodes, r, *dup, *delay, *crash)
		if err != nil {
			return err
		}
		cells = append(cells, cell{rate: r, plan: plan})
	}

	// One cell per drop rate, keyed by its position in the sweep.
	runner := exper.NewRunner(*parallel)
	if !*quiet {
		runner.SetProgress(func(p exper.Progress) {
			i, _ := strconv.Atoi(p.Key)
			fmt.Fprintf(stderr, "dexchaos: drop=%.3f done in %v\n", cells[i].rate, cells[i].wall.Round(time.Millisecond))
		})
	}
	pending := make([]*exper.Cell, len(cells))
	for i := range cells {
		cfg := base.Config
		cfg.Opts = append(slices.Clip(cfg.Opts), dex.WithChaos(cells[i].plan))
		c := &cells[i]
		pending[i] = runner.Submit(strconv.Itoa(i), func() any {
			start := time.Now()
			c.res, c.err = app.Run(cfg)
			c.wall = time.Since(start)
			return nil
		})
	}
	for _, p := range pending {
		p.Wait()
	}

	// Non-default protocol/restart settings are recorded in the header so
	// their goldens are self-describing; the default header stays
	// byte-identical to earlier releases.
	extra := ""
	if base.Protocol != dex.WriteInvalidate {
		extra += fmt.Sprintf(" protocol=%v", base.Protocol)
	}
	if cl.Restart {
		extra += " restart=true"
	}
	fmt.Fprintf(stdout, "# dexchaos: app=%s nodes=%d threads/node=%d size=%s seed=%d dup=%.3f delay=%v crash=%v%s\n",
		app.Name, cl.Nodes, cl.Threads, cl.Size, cl.Seed, *dup, *delay, *crash, extra)
	fmt.Fprintf(stdout, "%-8s %-9s %-14s %-8s %-12s %-8s %-9s %-8s %-8s %s\n",
		"drop", "status", "elapsed", "dropped", "retransmits", "dups", "pages", "rebuilt", "threads", "check")
	survived := 0
	for _, c := range cells {
		if c.err != nil {
			fmt.Fprintf(stdout, "%-8.3f %-9s %-14s %-8s %-12s %-8s %-9s %-8s %-8s %s\n",
				c.rate, "FAIL", "-", "-", "-", "-", "-", "-", "-", "err: "+c.err.Error())
			continue
		}
		survived++
		rep := c.res.Report
		var injected chaos.Stats
		var threadsLost int
		if rep.Chaos != nil {
			injected = rep.Chaos.Injected
			threadsLost = rep.Chaos.ThreadsLost
		}
		fmt.Fprintf(stdout, "%-8.3f %-9s %-14v %-8d %-12d %-8d %-9d %-8d %-8d %s\n",
			c.rate, "ok", c.res.Elapsed, injected.Dropped, rep.DSM.Retransmits,
			rep.DSM.DupsIgnored, rep.DSM.PagesLost, rep.DSM.DirRebuilt, threadsLost, c.res.Check)
	}
	if frac := float64(survived) / float64(len(cells)); frac < *failUnder {
		return fmt.Errorf("survival %d/%d (%.0f%%) below -fail-under %.0f%%",
			survived, len(cells), 100*frac, 100**failUnder)
	}
	return nil
}

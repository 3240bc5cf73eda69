// Command dexrun executes one of the paper's benchmark applications on a
// simulated DeX cluster and prints its run report.
//
// Usage:
//
//	dexrun -app kmn -nodes 8 -variant optimized -size full
//	dexrun -app bfs -nodes 4 -trace out.json -metrics
//	dexrun -app kmn -json
//	dexrun -list
//
// -trace writes a Chrome/Perfetto trace-event JSON file of the run
// (inspect with https://ui.perfetto.dev or cmd/dextrace); -metrics prints
// latency histogram summaries; -json replaces the human-readable report
// with a machine-readable JSON document including the per-node TLB
// breakdown.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"dex"
	"dex/internal/apps"
	"dex/internal/cli"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dexrun:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dexrun", flag.ContinueOnError)
	cl := cli.Cluster{Nodes: 2, Threads: 8, Seed: 1, Size: "test", Variant: "optimized", Protocol: "wi"}
	cl.Register(fs, map[string]string{
		"nodes":    "cluster size",
		"threads":  "threads per node",
		"variant":  cli.VariantHelp,
		"size":     cli.SizeHelp,
		"seed":     "simulation seed",
		"trace":    cli.TraceHelp,
		"chaos":    "JSON fault-injection plan to run the application under",
		"protocol": dex.ProtocolHelp(),
		"restart":  "run checkpoint/restart-capable workers (" + strings.Join(apps.Restartable(), ", ") + "): threads lost to a crash resume from their last checkpoint",
		"metrics":  "print latency histogram summaries after the run",
	})
	var (
		appName = fs.String("app", "", "application to run (see -list)")
		list    = fs.Bool("list", false, "list available applications")
		jsonOut = fs.Bool("json", false, "emit the run report as JSON instead of text")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, a := range apps.All() {
			mark := ""
			if a.Restartable {
				mark = "  [-restart]"
			}
			fmt.Printf("%-5s %s%s\n", a.Name, a.Desc, mark)
		}
		return nil
	}
	app, ok := apps.ByName(*appName)
	if !ok {
		var names []string
		for _, a := range apps.All() {
			names = append(names, a.Name)
		}
		return fmt.Errorf("unknown application %q (one of %s)", *appName, strings.Join(names, ", "))
	}
	cfg, err := cl.Resolve(&app)
	if err != nil {
		return err
	}
	start := time.Now()
	res, err := app.Run(cfg.Config)
	if err != nil {
		return err
	}
	if cl.Trace != "" {
		if err := cfg.Rec.WriteTraceFile(cl.Trace); err != nil {
			return err
		}
	}
	if *jsonOut {
		out := jsonReport{
			App:     res.App,
			Variant: res.Variant.String(),
			Nodes:   res.Nodes,
			Threads: res.Threads,
			Elapsed: res.Elapsed,
			Check:   res.Check,
			Report:  res.Report,
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			return err
		}
		if cl.Metrics {
			return cfg.Rec.WriteMetrics(os.Stderr)
		}
		return nil
	}
	fmt.Printf("app:          %s (%s, %d nodes x %d threads)\n", res.App, res.Variant, res.Nodes, res.Threads/max(res.Nodes, 1))
	fmt.Printf("elapsed:      %v (virtual, region of interest)\n", res.Elapsed)
	fmt.Printf("wall clock:   %v\n", time.Since(start).Round(time.Millisecond))
	fmt.Printf("result check: %s\n", res.Check)
	fmt.Printf("migrations:   %d\n", res.Report.Migrations)
	d := res.Report.DSM
	fmt.Printf("dsm:          %d reads, %d writes, %d coalesced, %d nacks, %d invalidations, %d upgrades\n",
		d.ReadFaults, d.WriteFaults, d.FollowerJoins, d.Nacks, d.Invalidations, d.OwnershipGrants)
	n := res.Report.Net
	fmt.Printf("fabric:       %d small msgs (%d B), %d page sends (%d B), %d RDMA writes\n",
		n.SmallSends, n.SmallBytes, n.PageSends, n.PageBytes, n.RDMAWrites)
	fmt.Printf("delegations:  %d   vma queries: %d\n", res.Report.Delegations, res.Report.VMAQueries)
	tlb := res.Report.TLB
	fmt.Printf("tlb:          %d hits, %d misses (%.1f%% hit rate), %d shootdown flushes\n",
		tlb.Hits, tlb.Misses, 100*tlb.HitRate(), tlb.Flushes)
	fmt.Printf("frames:       %d recycled, %d allocated, %d shared\n",
		res.Report.FramesRecycled, res.Report.FrameAllocs, res.Report.FramesShared)
	cli.PrintSched(os.Stdout, res.Report.Sched, cl.Metrics)
	if c := res.Report.Chaos; c != nil {
		fmt.Printf("chaos:        %d dropped, %d duplicated, %d delayed, %d held; %d retransmits, %d dups ignored\n",
			c.Injected.Dropped, c.Injected.Duplicated, c.Injected.Delayed, c.Injected.Held,
			res.Report.DSM.Retransmits, res.Report.DSM.DupsIgnored)
		fmt.Printf("chaos loss:   %d nodes, %d threads, %d pages lost; %d lease suspects\n",
			c.NodesLost, c.ThreadsLost, res.Report.DSM.PagesLost, c.LeaseSuspects)
		if c.ThreadsRestarted > 0 || c.PagesRestored > 0 {
			fmt.Printf("chaos restart: %d threads restarted, %d pages restored\n",
				c.ThreadsRestarted, c.PagesRestored)
		}
	}
	for n, s := range res.Report.TLBPerNode {
		if s.Hits == 0 && s.Misses == 0 && s.Flushes == 0 {
			continue
		}
		fmt.Printf("tlb node %-4d %d hits, %d misses (%.1f%% hit rate), %d shootdown flushes\n",
			n, s.Hits, s.Misses, 100*s.HitRate(), s.Flushes)
	}
	if cl.Metrics {
		fmt.Println()
		return cfg.Rec.WriteMetrics(os.Stdout)
	}
	return nil
}

// jsonReport is the -json output document: run identity plus the full
// core.Report (per-node TLB breakdown included).
type jsonReport struct {
	App     string        `json:"app"`
	Variant string        `json:"variant"`
	Nodes   int           `json:"nodes"`
	Threads int           `json:"threads"`
	Elapsed time.Duration `json:"elapsed_ns"`
	Check   string        `json:"check"`
	Report  dex.Report    `json:"report"`
}

// Command dexprof runs an application under the DeX page-fault profiler
// (§IV-A of the paper) and prints the post-processed analyses: the program
// objects and code sites causing the most consistency faults, the most
// contended pages, fault frequency over time, and per-thread access
// patterns — the workflow the paper uses to find and fix false sharing.
//
// Usage:
//
//	dexprof -app kmn -nodes 4 -variant initial -size full -top 10
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"dex"
	"dex/internal/apps"
	"dex/internal/cli"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dexprof:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("dexprof", flag.ContinueOnError)
	cl := cli.Cluster{Nodes: 4, Seed: 1, Size: "test", Variant: "initial"}
	cl.Register(fs, map[string]string{
		"nodes":   "cluster size",
		"variant": cli.VariantHelp,
		"size":    cli.SizeHelp,
		"seed":    "simulation seed",
	})
	var (
		appName  = fs.String("app", "", "application to profile")
		top      = fs.Int("top", 10, "entries per analysis")
		buckets  = fs.Bool("timeline", false, "print the fault-frequency timeline")
		affinity = fs.Bool("affinity", false, "print thread-to-data affinity suggestions")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	app, ok := apps.ByName(*appName)
	if !ok {
		return fmt.Errorf("unknown application %q", *appName)
	}
	cfg, err := cl.Resolve(&app)
	if err != nil {
		return err
	}
	rec := dex.NewFaultRecorder()
	cfg.Opts = append(cfg.Opts, dex.WithObserver(rec))
	res, err := app.Run(cfg.Config)
	if err != nil {
		return err
	}
	trace := dex.ProfileOf(rec)
	trace.SetRegions(res.Report.Regions)
	fmt.Fprintf(stdout, "%s %s on %d nodes: %v\n\n", res.App, res.Variant, res.Nodes, res.Elapsed)
	trace.Report(stdout, *top)
	if *affinity {
		fmt.Fprintln(stdout, "\n--- affinity suggestions (move thread to its data's producer) ---")
		for _, s := range trace.AffinitySuggestions(8) {
			fmt.Fprintf(stdout, "thread %3d: node %d -> node %d (%d/%d remote reads, %.0f%% local after move)\n",
				s.Task, s.From, s.To, s.ReadFaults, s.Total, 100*s.Score())
		}
	}
	if *buckets {
		fmt.Fprintln(stdout, "\n--- fault frequency over time ---")
		for _, b := range trace.Timeline(res.Elapsed / 20) {
			fmt.Fprintf(stdout, "%12v %6d %s\n", b.Start.Round(10*time.Microsecond), b.Faults, strings.Repeat("#", b.Faults/20))
		}
	}
	return nil
}

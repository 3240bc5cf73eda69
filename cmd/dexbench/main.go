// Command dexbench regenerates the paper's evaluation artifacts: every
// table and figure of §V plus the design ablations. Each experiment prints
// the same rows/series the paper reports, with the paper's numbers
// alongside where applicable.
//
// Experiments decompose into independent simulation cells executed on a
// bounded worker pool (-parallel); identical cells shared by several
// experiments run once. Tables go to stdout in a fixed order and are
// byte-identical for every pool width; progress, ETA, and timing go to
// stderr.
//
// Usage:
//
//	dexbench                  # run everything at test scale
//	dexbench -size full       # full scale (regenerates EXPERIMENTS.md data)
//	dexbench -exp figure2     # one experiment
//	dexbench -parallel 1      # sequential cells (output identical either way)
//	dexbench -list
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"dex/internal/apps"
	"dex/internal/exper"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "dexbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("dexbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		expID    = fs.String("exp", "", "run a single experiment (see -list)")
		size     = fs.String("size", "test", "test | full (workload scale for application experiments)")
		list     = fs.Bool("list", false, "list experiments")
		parallel = fs.Int("parallel", 0, "max concurrent simulation cells (0 = GOMAXPROCS)")
		quiet    = fs.Bool("quiet", false, "suppress progress and timing output on stderr")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, e := range exper.All() {
			fmt.Fprintf(stdout, "%-20s %s\n", e.ID, e.Desc)
		}
		return nil
	}
	if *parallel < 0 {
		return fmt.Errorf("-parallel %d: cannot be negative", *parallel)
	}
	sz, err := apps.ParseSize(*size)
	if err != nil {
		return err
	}
	exps := exper.All()
	if *expID != "" {
		e, ok := exper.ByID(*expID)
		if !ok {
			return fmt.Errorf("unknown experiment %q (use -list)", *expID)
		}
		exps = []exper.Experiment{e}
	}

	runner := exper.NewRunner(*parallel)
	start := time.Now()
	if !*quiet {
		fmt.Fprintf(stderr, "dexbench: %d experiment(s), pool width %d\n", len(exps), runner.Parallel())
		runner.SetProgress(func(p exper.Progress) {
			elapsed := time.Since(start)
			eta := "?"
			if p.Completed > 0 && p.Completed < p.Submitted {
				remain := time.Duration(float64(elapsed) / float64(p.Completed) * float64(p.Submitted-p.Completed))
				eta = remain.Round(time.Second).String()
			} else if p.Completed == p.Submitted {
				eta = "0s"
			}
			fmt.Fprintf(stderr, "[%3d/%3d cells, %s elapsed, eta %s] %s\n",
				p.Completed, p.Submitted, elapsed.Round(time.Second), eta, p.Key)
		})
	}

	// Start every experiment at once: each submits all its cells to the
	// shared runner up front (so the pool is kept full and memoized cells
	// dedupe across experiments), then assembles its table. Tables print in
	// registry order regardless of completion order, so stdout is
	// byte-identical for any -parallel value.
	tables := make([]chan exper.Table, len(exps))
	for i, e := range exps {
		ch := make(chan exper.Table, 1)
		tables[i] = ch
		go func(e exper.Experiment) {
			ch <- e.Run(runner, sz)
		}(e)
	}
	for i, e := range exps {
		table := <-tables[i]
		fmt.Fprintln(stdout, table.Render())
		if !*quiet {
			fmt.Fprintf(stderr, "(%s assembled after %v)\n", e.ID, time.Since(start).Round(time.Millisecond))
		}
	}
	if !*quiet {
		fmt.Fprintf(stderr, "dexbench: done in %v\n", time.Since(start).Round(time.Millisecond))
	}
	return nil
}

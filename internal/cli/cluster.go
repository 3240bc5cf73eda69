// Package cli holds what the command-line tools share: the cluster flags,
// defined, validated and turned into run options in one place.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"sort"
	"strconv"
	"strings"
	"unicode"

	"dex"
	"dex/internal/apps"
	"dex/internal/dsm"
	"dex/internal/sim"
)

// Help texts that read the same in every tool that takes the flag.
const (
	SizeHelp    = "test | full"
	VariantHelp = "initial | optimized"
	TraceHelp   = "write Perfetto trace-event JSON to this file"
)

// Cluster holds the cluster flags of one tool, a field per flag of the same
// name. The tool sets the fields to its defaults, registers the flags it takes,
// parses, and calls Resolve.
type Cluster struct {
	Nodes, Threads          int // Threads is per node
	Seed                    int64
	Size, Variant, Protocol string
	Chaos, Trace            string // files: a JSON fault plan to read, a trace to write
	Restart, Metrics        bool

	fs *flag.FlagSet
}

// Register defines on fs the flags named in help, with that help text and the
// field's current value as the default.
func (c *Cluster) Register(fs *flag.FlagSet, help map[string]string) {
	c.fs = fs
	fields := map[string]any{"nodes": &c.Nodes, "threads": &c.Threads, "seed": &c.Seed, "size": &c.Size,
		"variant": &c.Variant, "protocol": &c.Protocol, "chaos": &c.Chaos, "restart": &c.Restart,
		"trace": &c.Trace, "metrics": &c.Metrics}
	for name, usage := range help {
		switch v := fields[name].(type) {
		case *int:
			fs.IntVar(v, name, *v, usage)
		case *int64:
			fs.Int64Var(v, name, *v, usage)
		case *string:
			fs.StringVar(v, name, *v, usage)
		case *bool:
			fs.BoolVar(v, name, *v, usage)
		default:
			panic("cli: no cluster flag -" + name)
		}
	}
}

// Run is what Resolve makes of the flags: the application config they describe
// (Opts carries the protocol, the chaos plan and the recorder), the protocol for
// the tools that print it, and the recorder — nil unless -trace or -metrics.
type Run struct {
	apps.Config
	Protocol dex.Protocol
	Rec      *dex.Recorder
}

// Resolve validates the fields as the tool's defaults and the parsed flags left
// them (an empty Variant or Protocol is none) and builds the run they describe.
// app is what -restart must be able to restart (nil: the tool has no app to
// ask). An error reads "-flag value: reason" on one line.
func (c *Cluster) Resolve(app *apps.App) (Run, error) {
	run := Run{Config: apps.Config{Nodes: c.Nodes, ThreadsPerNode: c.Threads, Seed: c.Seed, Restart: c.Restart}}
	var err error
	switch {
	case c.Nodes < 1:
		return run, fmt.Errorf("-nodes %d: cluster needs at least 1 node", c.Nodes)
	case c.Nodes > dsm.MaxNodes:
		return run, fmt.Errorf("-nodes %d: cluster has at most %d nodes", c.Nodes, dsm.MaxNodes)
	case c.fs.Lookup("threads") != nil && c.Threads < 1:
		return run, fmt.Errorf("-threads %d: need at least 1 thread per node", c.Threads)
	case c.Restart && app != nil && !app.Restartable:
		return run, fmt.Errorf("-restart: %s does not support checkpoint/restart (supported: %s)",
			app.Name, strings.Join(apps.Restartable(), ", "))
	}
	if run.Size, err = apps.ParseSize(c.Size); err != nil {
		return run, fmt.Errorf("-size %s: %w", shown(c.Size), err)
	}
	if c.Variant != "" {
		if run.Variant, err = apps.ParseVariant(c.Variant); err != nil {
			return run, fmt.Errorf("-variant %s: %w", shown(c.Variant), err)
		}
	}
	if c.Protocol != "" {
		if run.Protocol, err = dex.ParseProtocol(c.Protocol); err != nil {
			return run, fmt.Errorf("-protocol %s: %w", shown(c.Protocol), err)
		}
		if run.Protocol != dex.WriteInvalidate {
			run.Opts = append(run.Opts, dex.WithProtocol(run.Protocol))
		}
	}
	if c.Chaos != "" {
		plan, err := dex.LoadChaosPlan(c.Chaos, c.Nodes)
		var pe *fs.PathError
		if errors.As(err, &pe) {
			err = pe.Err // the path is shown already, and raw it may break the line
		}
		if err != nil {
			return run, fmt.Errorf("-chaos %s: %w", shown(c.Chaos), err)
		}
		for _, cr := range plan.Crashes {
			if cr.Node == 0 { // every tool starts its process at node 0
				return run, fmt.Errorf("-chaos %s: the plan crashes node 0, the origin of the process; origin crashes are not survivable", shown(c.Chaos))
			}
		}
		run.Opts = append(run.Opts, dex.WithChaos(plan))
	}
	if c.Trace != "" || c.Metrics {
		run.Rec = dex.NewRecorder()
		run.Opts = append(run.Opts, dex.WithObserver(run.Rec))
	}
	return run, nil
}

// shown renders a flag value for an error: as typed when it is one printable
// word, quoted otherwise, so the error stays one line that names the value.
func shown(v string) string {
	if v == "" || strings.ContainsFunc(v, func(r rune) bool { return unicode.IsSpace(r) || !unicode.IsPrint(r) }) {
		return strconv.Quote(v)
	}
	return v
}

// PrintSched writes the scheduler line of a run's report and, when metrics
// asks for it, the event census under it: Events by kind, one per line, the
// biggest runner first, then the rounds slept on and the task switches. The
// census is there only if the run had a recorder, which -metrics gives it.
func PrintSched(w io.Writer, s sim.SchedStats, metrics bool) {
	fmt.Fprintf(w, "sched:        %d events (%d sleeps taken in place), %d windows (%d serialized, %d events), %d lane dispatches (max %d lanes/window)\n",
		s.Events, s.InPlaceWakes, s.Windows, s.SerializedWindows, s.SerializedEvents, s.LaneDispatches, s.MaxWindowLanes)
	cs := s.Census
	if !metrics || cs == nil {
		return
	}
	row := func(kind string, n uint64) {
		fmt.Fprintf(w, "  %-52s %10d  %5.1f%%\n", kind, n, 100*float64(n)/float64(max(s.Events, 1)))
	}
	row("task start", cs.TaskStarts)
	row("sleep wake (queued)", cs.SleepWakes)
	row("sleep taken in place", s.InPlaceWakes)
	row("unpark", cs.Unparks)
	row("park timeout", cs.ParkTimeouts)
	runners := append([]sim.RunnerCount(nil), cs.Runners...)
	sort.SliceStable(runners, func(i, j int) bool { return runners[i].Events > runners[j].Events })
	for _, r := range runners {
		row("run "+strings.Replace(r.Name, "dex/internal/", "", 1), r.Events)
	}
	fmt.Fprintf(w, "  of the sleeps, %d were SleepWhile rounds slept on: no task code ran\n", cs.SleptOn)
	fmt.Fprintf(w, "  %d task switches: coroutine starts and resumes, not events\n", cs.Switches)
}

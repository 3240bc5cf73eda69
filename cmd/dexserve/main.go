// Command dexserve runs DeX as a live-traffic serving backend: the
// deterministic open-loop generator of internal/load drives a sharded
// in-memory KV/aggregation store (internal/serve) and the per-tenant SLO
// report — exact latency percentiles, goodput, shed counts — prints as a
// table. Every number on stdout derives from virtual time, so the output
// is byte-identical across reruns and tracing on/off;
// wall-clock timing goes to stderr.
//
// Usage:
//
//	dexserve -nodes 4 -tenants 3
//	dexserve -nodes 4 -protocol home -crash 10ms -restart
//	dexserve -json
//	dexserve -trace out.json -metrics
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"dex"
	"dex/internal/apps"
	"dex/internal/chaos"
	"dex/internal/cli"
	"dex/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "dexserve:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("dexserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cl := cli.Cluster{Nodes: 2, Seed: 1, Size: "test", Protocol: "wi"}
	cl.Register(fs, map[string]string{
		"nodes":    "cluster size; one store shard per node",
		"seed":     "simulation and traffic seed",
		"size":     "test | full (traffic window and keyspace scale)",
		"protocol": dex.ProtocolHelp(),
		"chaos":    "JSON fault-injection plan to serve under",
		"restart":  "spawn shards restartable: a shard lost with its node resumes from its checkpoint",
		"trace":    cli.TraceHelp,
		"metrics":  "print the scheduler's event census and latency histogram summaries on stderr after the run",
	})
	var (
		tenants = fs.Int("tenants", 2, "tenant count; one gateway thread per tenant")
		crash   = fs.Duration("crash", 0, "crash the highest node at this virtual traffic time (0 = no crash)")
		jsonOut = fs.Bool("json", false, "emit the SLO report as JSON instead of a table")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	res, err := cl.Resolve(nil)
	if err != nil {
		return err
	}
	if *tenants < 1 {
		return fmt.Errorf("-tenants %d: need at least 1 tenant", *tenants)
	}
	if cl.Chaos != "" && *crash != 0 {
		return fmt.Errorf("-chaos and -crash are mutually exclusive")
	}
	cfg := serve.Config{
		Nodes:   res.Nodes,
		Spec:    serve.DefaultSpec(*tenants, res.Size == apps.SizeFull, res.Seed),
		Restart: res.Restart,
		Opts:    res.Opts,
	}
	if *crash != 0 {
		plan, err := chaos.FlagPlan(res.Seed, res.Nodes, 0, 0, 0, *crash)
		if err != nil {
			return err
		}
		cfg.Opts = append(cfg.Opts, dex.WithChaos(plan))
	}
	start := time.Now()
	rep, err := serve.Run(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "dexserve: wall clock %v\n", time.Since(start).Round(time.Millisecond))

	if cl.Trace != "" {
		if err := res.Rec.WriteTraceFile(cl.Trace); err != nil {
			return err
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return err
		}
	} else {
		printTable(stdout, cfg, rep, cl.Size, res.Protocol)
	}
	if cl.Metrics {
		fmt.Fprintln(stderr)
		cli.PrintSched(stderr, rep.Dex.Sched, true)
		return res.Rec.WriteMetrics(stderr)
	}
	return nil
}

// printTable renders the human-readable SLO report. Everything printed
// derives from virtual time and the deterministic run, so the bytes are
// stable for a given flag set.
func printTable(w io.Writer, cfg serve.Config, rep serve.Report, size string, proto dex.Protocol) {
	fmt.Fprintf(w, "# dexserve: tenants=%d nodes=%d seed=%d size=%s protocol=%v spec=%s\n",
		len(cfg.Spec.Tenants), rep.Nodes, cfg.Spec.Seed, size, proto, rep.Fingerprint)
	fmt.Fprintf(w, "%-8s %9s %9s %7s %7s %9s %12s %11s %11s %11s %11s %11s\n",
		"tenant", "offered", "admitted", "shed429", "shedQ", "served", "goodput_rps", "p50", "p95", "p99", "p999", "max")
	row := func(ts serve.TenantStats) {
		fmt.Fprintf(w, "%-8s %9d %9d %7d %7d %9d %12.0f %11v %11v %11v %11v %11v\n",
			ts.Name, ts.Offered, ts.Admitted, ts.Shed429, ts.ShedQueue, ts.Served,
			ts.Goodput, ts.P50, ts.P95, ts.P99, ts.P999, ts.Max)
	}
	for _, ts := range rep.Tenants {
		row(ts)
	}
	row(rep.Total)
	fmt.Fprintf(w, "exactly-once: %s restarts=%d republishes=%d reacks=%d elapsed=%v\n",
		rep.Digest(), rep.Restarts, rep.Republishes, rep.Reacks, rep.Elapsed)
}

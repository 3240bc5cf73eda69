package exper

import (
	"fmt"
	"time"

	"dex"
	"dex/internal/apps"
	"dex/internal/chaos"
	"dex/internal/serve"
)

// serveCrashAt places the mid-traffic crash of the serving experiment's
// fault rows: past the traffic epoch, well inside the window at either
// workload scale.
const serveCrashAt = 10 * time.Millisecond

// ServeSLO (S1) measures DeX as a live-traffic backend: the deterministic
// open-loop generator drives the sharded store under both coherence
// protocols, with and without a mid-traffic node crash recovered by
// checkpoint/restart, and the table reports the per-run SLO outcome —
// tail latency, goodput, shed and recovery counts. Every admitted request
// is served exactly once in all four cells (serve.Run fails otherwise).
func ServeSLO(r *Runner, size apps.Size) Table {
	spec := serve.DefaultSpec(2, size == apps.SizeFull, 1)
	type cell struct {
		proto   dex.Protocol
		name    string
		restart bool
		opts    []dex.Option
	}
	const nodes = 3
	crash := &dex.ChaosPlan{Seed: 1, Crashes: []chaos.Crash{{Node: 2, At: chaos.Duration(serveCrashAt)}}}
	var cells []cell
	for _, proto := range []dex.Protocol{dex.WriteInvalidate, dex.HomeMigrate} {
		cells = append(cells,
			cell{proto: proto, name: "clean", opts: []dex.Option{dex.WithProtocol(proto)}},
			cell{proto: proto, name: "crash+restart", restart: true, opts: []dex.Option{dex.WithProtocol(proto), dex.WithChaos(crash)}})
	}
	type outcome struct {
		rep serve.Report
		err error
	}
	results := Sweep(r, func(c cell) string {
		return fmt.Sprintf("serve/slo/%s/%s/spec=%s/params=%s",
			c.proto, c.name, spec.Fingerprint(), dex.ParamsFingerprint(nodes, c.opts...))
	}, cells, func(c cell) (out outcome) {
		out.rep, out.err = serve.Run(serve.Config{Nodes: nodes, Spec: spec, Restart: c.restart, Opts: c.opts})
		return out
	})
	t := Table{
		ID:     "S1",
		Title:  "serving SLO: live traffic under crash/restart (internal/serve)",
		Header: []string{"policy", "faults", "admitted", "served", "shed-429", "p50", "p99", "goodput-rps", "restarts", "repairs"},
	}
	for i, c := range cells {
		rep, err := results[i].rep, results[i].err
		if err != nil {
			t.Rows = append(t.Rows, []string{c.proto.String(), c.name, "err: " + err.Error()})
			continue
		}
		t.Rows = append(t.Rows, []string{
			c.proto.String(), c.name,
			fmt.Sprint(rep.Total.Admitted), fmt.Sprint(rep.Total.Served),
			fmt.Sprint(rep.Total.Shed429),
			rep.Total.P50.String(), rep.Total.P99.String(),
			fmt.Sprintf("%.0f", rep.Total.Goodput),
			fmt.Sprint(rep.Restarts), fmt.Sprint(rep.Republishes + rep.Reacks),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("traffic spec %s: 2 tenants (rate-limited flat + step ramp), %d nodes, crash rows kill node 2 at %v and restart its shard from checkpoint", spec.Fingerprint(), nodes, serveCrashAt),
		"admitted == served in every row: the slot-ring idempotency protocol keeps serving exactly-once through the crash")
	return t
}

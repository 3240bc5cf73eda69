package apps

import (
	"dex/internal/serve"
)

// RunSRV adapts the serving subsystem (internal/serve) to the app runner
// interface so dexrun, dexchaos, and the determinism harnesses can drive
// it alongside the benchmark suite. The mapping reinterprets the generic
// knobs: ThreadsPerNode becomes the tenant count (one gateway thread per
// tenant at the origin, one store shard per node), Size selects the short
// or full traffic window, and Restart spawns the shards restartable.
// Variants do not apply — the serving topology has no porting stages — so
// the field is ignored.
func RunSRV(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	rep, err := serve.Run(serve.Config{
		Nodes:   cfg.Nodes,
		Spec:    serve.DefaultSpec(cfg.ThreadsPerNode, cfg.Size == SizeFull, cfg.Seed),
		Restart: cfg.Restart,
		Opts:    cfg.Opts,
	})
	if err != nil {
		return Result{}, err
	}
	return Result{
		App:     "srv",
		Variant: cfg.Variant,
		Nodes:   rep.Nodes,
		Threads: len(rep.Tenants) + rep.Nodes,
		Elapsed: rep.Elapsed,
		Report:  rep.Dex,
		Check:   rep.Digest(),
	}, nil
}

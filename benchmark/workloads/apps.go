package workloads

import (
	"fmt"

	"dex/internal/apps"
)

const (
	appsNodes = 8
	// appsEventLimit is ≈10× the events of the largest full-size run.
	appsEventLimit = 50_000_000
)

// newAppsFull runs kmn, bp and ep at full size on eight nodes under
// write-invalidate: the runs that dominate `make artifacts`, bound by
// application compute and input generation. Each application checks its
// own answer against its sequential reference inside Run.
func newAppsFull(cfg Config) (*Workload, error) {
	size := apps.SizeFull
	if cfg.Quick {
		size = apps.SizeTest
	}
	var list []apps.App
	for _, name := range []string{"kmn", "bp", "ep"} {
		app, ok := apps.ByName(name)
		if !ok {
			return nil, fmt.Errorf("apps_full: no application %q", name)
		}
		list = append(list, app)
	}
	w := &Workload{Name: "apps_full"}
	w.Iterate = func(parent int, traced bool) Iteration {
		var it Iteration
		for _, app := range list {
			opts, rec := runOpts(appsEventLimit, traced)
			sp := cfg.Log.Begin(parent, "App.Run "+app.Name)
			res, err := app.Run(apps.Config{Nodes: appsNodes, Size: size, Seed: cfg.Seed, Opts: opts})
			cfg.Log.End(sp)
			it.Runs = append(it.Runs, Run{Label: app.Name, Elapsed: res.Elapsed, Check: res.Check, Err: err, Dex: &res.Report, Rec: rec})
		}
		return it
	}
	return w, nil
}

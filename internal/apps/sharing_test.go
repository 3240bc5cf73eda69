package apps_test

import (
	"testing"

	"dex/internal/apps"
	"dex/internal/exper"
)

// sweepSeed is no other test's seed, and moves on with every sweep so that
// -count N finds nothing built either.
var sweepSeed int64 = 1811

// TestRunnerCellsShareOneInput: the cells of a sweep — one application at
// 1/2/4/8 nodes in three variants, four at a time — build the application's
// input once between them.
func TestRunnerCellsShareOneInput(t *testing.T) {
	sweepSeed++
	seed := sweepSeed
	for _, name := range []string{"kmn", "bp", "bfs", "grp", "ep"} {
		app, _ := apps.ByName(name)
		t.Run(name, func(t *testing.T) {
			runner := exper.NewRunner(4)
			start := apps.InputBuilds()
			var cells []*exper.Cell
			for _, variant := range []apps.Variant{apps.Baseline, apps.Initial, apps.Optimized} {
				for _, nodes := range []int{1, 2, 4, 8} {
					cells = append(cells, runner.SubmitApp(app, apps.Config{Nodes: nodes, Variant: variant, Seed: seed}))
				}
			}
			for _, c := range cells {
				if _, err := exper.WaitApp(c); err != nil {
					t.Errorf("%s: %v", c.Key(), err)
				}
			}
			if n := apps.InputBuilds() - start; n != 1 {
				t.Fatalf("%d builds for one sweep, want 1", n)
			}
		})
	}
}

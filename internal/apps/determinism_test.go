package apps_test

import (
	"reflect"
	"testing"

	"dex/internal/apps"
)

// TestSameSeedDeterminism runs every application in every variant, and as
// the paper's baseline (Initial on one node, the unmodified program), twice
// with identical configurations and requires bit-identical results —
// elapsed virtual time, answer digest, and the full report including every
// protocol and interconnect counter. This is the property the parallel
// experiment harness builds on: a simulation cell is a pure function of
// its configuration, so memoizing and reordering cells cannot change any
// table.
func TestSameSeedDeterminism(t *testing.T) {
	cases := []struct {
		name    string
		variant apps.Variant
		nodes   int
	}{
		{"baseline", apps.Initial, 1},
		{"initial", apps.Initial, 2},
		{"optimized", apps.Optimized, 2},
	}
	for _, app := range apps.All() {
		for _, c := range cases {
			app, c := app, c
			t.Run(app.Name+"/"+c.name, func(t *testing.T) {
				t.Parallel()
				cfg := apps.Config{Nodes: c.nodes, Variant: c.variant, Size: apps.SizeTest, Seed: 7}
				first, err := app.Run(cfg)
				if err != nil {
					t.Fatalf("first run: %v", err)
				}
				second, err := app.Run(cfg)
				if err != nil {
					t.Fatalf("second run: %v", err)
				}
				if first.Check != second.Check {
					t.Fatalf("answer digest differs: %q vs %q", first.Check, second.Check)
				}
				if first.Elapsed != second.Elapsed {
					t.Fatalf("elapsed differs: %v vs %v", first.Elapsed, second.Elapsed)
				}
				if !reflect.DeepEqual(first, second) {
					t.Fatalf("results differ:\nfirst:  %+v\nsecond: %+v", first, second)
				}
			})
		}
	}
}

package core_test

import (
	"testing"
	"time"

	"dex"
	"dex/internal/chaos"
	"dex/internal/core"
	"dex/internal/serve"
)

// TestCheckpointCopyBudget pins how many pages the checkpoints of a fixed
// crash+restart serving run (dexserve -nodes 3 -crash 10ms -restart) hold and
// how many of them the host copies: a snapshot is brought up to date, so only
// pages whose generation moved since the thread's last checkpoint are copied
// again. No output shows the count — the simulated charge is the whole
// resident set either way — so a return to full copies fails here by name
// (make goldens runs it with the other cost gates). Update the constants when
// a change moves them, and say why in CHANGES.md.
func TestCheckpointCopyBudget(t *testing.T) {
	const wantHeld, wantCopied = 3860, 2169
	plan, err := chaos.FlagPlan(1, 3, 0, 0, 0, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	var held, copied int
	stop := core.CountCheckpointCopies(&held, &copied)
	defer stop()
	_, err = serve.Run(serve.Config{
		Nodes:   3,
		Spec:    serve.DefaultSpec(2, false, 1),
		Restart: true,
		Opts:    []dex.Option{dex.WithChaos(plan)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if held != wantHeld || copied != wantCopied {
		t.Fatalf("the run's checkpoints held %d pages and copied %d, want %d and %d", held, copied, wantHeld, wantCopied)
	}
}

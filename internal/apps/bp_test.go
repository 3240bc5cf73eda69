package apps

import (
	"runtime"
	"testing"

	"dex"
)

// An 8-node Optimized bp run at test size allocates at most one belief
// snapshot a node beyond its other costs: the workers on a node share one.
// The other costs (frames, page tables, fault records, the workers' private
// adjacency) are allowed one host copy a node of every page the run maps:
// 4.6 MB, where they take 2.9 MB. Snapshots kept per worker, eight a node,
// add 13.5 MB and fail it.
func TestBPSnapshotCopyBudget(t *testing.T) {
	cfg := Config{Nodes: 8, Variant: Optimized, Size: SizeTest}.withDefaults()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	tr := bpInputOf(cfg).tr
	_, partBase := bpLayout(tr, cfg.threads(), cfg.Variant)
	bufBytes := partBase[cfg.threads()]
	pages := func(n int) uint64 { return (uint64(n) + dex.PageSize - 1) / dex.PageSize * dex.PageSize }
	// Offsets, edges, the two belief buffers, the progress page, the barrier.
	mapped := pages(8*(tr.N+1)) + pages(4*tr.M()+8) + 2*bufBytes + 2*dex.PageSize
	heap, err := heapMin(func() error { _, err := RunBP(cfg); return err })
	if err != nil {
		t.Fatal(err)
	}
	budget := uint64(cfg.Nodes) * (bufBytes + mapped)
	t.Logf("bp, %d nodes × %d threads: %d bytes; snapshot %d bytes, mapped %d, budget %d",
		cfg.Nodes, cfg.ThreadsPerNode, heap, bufBytes, mapped, budget)
	if heap > budget {
		t.Errorf("an %d-node bp run allocates %d bytes, want at most %d: one %d-byte snapshot and one copy of its %d mapped bytes a node",
			cfg.Nodes, heap, budget, bufBytes, mapped)
	}
}

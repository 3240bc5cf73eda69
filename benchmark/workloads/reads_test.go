package workloads

import (
	"testing"

	"dex"
)

// TestReadShare runs a small read-share configuration — 8 nodes × 8
// threads, a 256-page table, one read round and 32 restamps — under every
// coherence policy: each must pass the stamp check well inside the event
// limit, and all must leave the same table behind.
func TestReadShare(t *testing.T) {
	const limit = 2_000_000 // a run needs about a twentieth of this
	first := ""
	for _, pol := range policies {
		rep, digest, err := readShare(1, 8, 8, 256, 1, 32, dex.WithProtocol(pol.proto), dex.WithEventLimit(limit))
		if err != nil {
			t.Fatalf("%s: %v", pol.short, err)
		}
		t.Logf("%s: %d events, %s", pol.short, rep.Sched.Events, digest)
		if first == "" {
			first = digest
		} else if digest != first {
			t.Errorf("%s: digest %q, the first policy left %q", pol.short, digest, first)
		}
	}
}

package dsm

import (
	"testing"
	"unsafe"

	"dex/internal/mem"
	"dex/internal/sim"
)

// A steady-state remote write fault that revokes one replica allocates its
// transaction records (the request's, the serve's, the revocation's and the
// landing zone), the tasks that serve and apply it with their closures, the
// revoke ack and the writer's new PTE — and nothing per message: each message
// lives in the record that sends it, and the fabric recycles its flights.
// Every page is written at node 0 and read at node 2 first, so that the
// measured write at node 1 finds a replica to revoke (and the home's own copy,
// invalidated in place). Under dist some of the faults are redirected and
// compress the chain they walked, which costs a few more.
func TestWriteFaultAllocsPerRun(t *testing.T) {
	const runs = 1 + 100 // testing.AllocsPerRun's warm-up and measured runs
	want := map[Protocol]float64{WriteInvalidate: 11, HomeMigrate: 11, DistributedManager: 13}
	forEachProtocol(t, func(t *testing.T, proto Protocol) {
		e := newEnv(t, 3, protoParams(proto), nil)
		addr := func(p int) mem.Addr { return testAddr + mem.Addr(p*mem.PageSize) }
		var got float64
		var revokes uint64
		e.eng.Spawn("main", func(tk *sim.Task) {
			for p := 0; p < runs; p++ {
				e.write(tk, 0, addr(p), 1)
				e.read(tk, 2, addr(p))
			}
			before := e.m.Stats().Invalidations
			p := 0
			got = testing.AllocsPerRun(runs-1, func() {
				e.write(tk, 1, addr(p), 2)
				p++
			})
			revokes = e.m.Stats().Invalidations - before
		})
		e.run(t)
		if revokes != 2*runs {
			t.Errorf("%v: %d invalidations over %d write faults, want two each", proto, revokes, runs)
		}
		if got != want[proto] {
			t.Errorf("%v: a remote write fault revoking one replica allocates %v objects, want %v", proto, got, want[proto])
		}
	})
}

// The transaction records stay in their size classes: a field added to one
// must not silently move every request or revocation into a larger class.
func TestRecordsSizeof(t *testing.T) {
	if got := unsafe.Sizeof(outstanding{}); got > 176 {
		t.Errorf("unsafe.Sizeof(outstanding{}) = %d, past its 176-byte size class", got)
	}
	if got := unsafe.Sizeof(revokeWaiter{}); got > 112 {
		t.Errorf("unsafe.Sizeof(revokeWaiter{}) = %d, past its 112-byte size class", got)
	}
}

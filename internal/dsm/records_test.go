package dsm

import (
	"testing"
	"unsafe"

	"dex/internal/mem"
	"dex/internal/sim"
)

// A steady-state remote write fault that revokes one replica allocates its
// four transaction records — the request's, the serve's, the revocation's at
// the home and at the replica — and the writer's new PTE, and nothing else:
// each record embeds the messages it sends, the request's its landing zone,
// and the serve's and the applied revocation's the task that runs them (a
// record is its task's body); the fabric recycles its flights. Every page is
// written at node 0 and read at node 2 first, so that the measured write at
// node 1 finds a replica to revoke (and the home's own copy, invalidated in
// place). Under dist the new home's directory entry is one more, and some
// faults are redirected (a second request and serve record) and compress the
// chain they walked.
func TestWriteFaultAllocsPerRun(t *testing.T) {
	const runs = 1 + 100 // testing.AllocsPerRun's warm-up and measured runs
	want := map[Protocol]float64{WriteInvalidate: 5, HomeMigrate: 5, DistributedManager: 6}
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
// Each bound is a size class; what a record embeds (a landing zone, a task)
// is bytes it no longer allocates beside it.
func TestRecordsSizeof(t *testing.T) {
	for _, r := range []struct {
		name      string
		size, max uintptr
	}{
		{"outstanding", unsafe.Sizeof(outstanding{}), 240},
		{"serveState", unsafe.Sizeof(serveState{}), 256},
		{"revokeWaiter", unsafe.Sizeof(revokeWaiter{}), 112},
		{"pull", unsafe.Sizeof(pull{}), 160},
		{"appliedRevoke", unsafe.Sizeof(appliedRevoke{}), 192},
	} {
		if r.size > r.max {
			t.Errorf("unsafe.Sizeof(%s{}) = %d, past its %d-byte size class", r.name, r.size, r.max)
		}
	}
}

// Every landing zone is claimed or released, whatever the fabric does to the
// exchange that prepared it: after floorWorkload's drops, duplicates, delays
// and crash, each connection between live nodes has its whole sink pool back
// at quiescence. A zone lives in its record (a request's, a pull's), so a
// path that drops a record without releasing its zone leaks a chunk here.
func TestChaosSinkChunksReturn(t *testing.T) {
	forEachProtocol(t, func(t *testing.T, proto Protocol) {
		for seed := int64(1); seed <= 12; seed++ {
			if proto == HomeMigrate && (seed == 8 || seed == 12) {
				continue // floorWorkload's doomed writer is still writing at the crash
			}
			e := floorWorkload(t, proto, seed, true, nil)
			e.run(t)
			if e.net.Stats().PageSends == 0 {
				t.Fatalf("seed %d: no page crossed the fabric", seed)
			}
			chunks := e.net.Params().SinkChunks
			for src := 0; src < 4; src++ {
				for dst := 0; dst < 4; dst++ {
					if src == dst {
						continue
					}
					if free := e.net.SinkFree(src, dst); free != chunks {
						t.Errorf("seed %d: link %d->%d: %d of %d sink chunks free at quiescence", seed, src, dst, free, chunks)
					}
				}
			}
		}
	})
}

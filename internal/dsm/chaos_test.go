package dsm

import (
	"testing"
	"time"

	"dex/internal/chaos"
	"dex/internal/mem"
	"dex/internal/sim"
)

// newChaosEnv is newEnv with a fault injector attached to the fabric before
// the manager is created (mirroring core's wiring order).
func newChaosEnv(t *testing.T, nodes int, plan *chaos.Plan) *env {
	t.Helper()
	return newChaosEnvParams(t, nodes, plan, DefaultParams())
}

// mixedWorkload shuttles two pages between three nodes so that every
// protocol message class (request, reply with and without data, install
// ack, revoke with and without data, revoke ack) is exercised.
func mixedWorkload(e *env, tk *sim.Task) (got [4]byte) {
	addrA, addrB := testAddr, testAddr+mem.Addr(mem.PageSize)
	e.write(tk, 0, addrA, 10) // first touch at origin
	e.write(tk, 0, addrB, 20)
	e.write(tk, 1, addrA, 11) // pull A exclusive to node 1
	got[0] = e.read(tk, 2, addrA)
	e.write(tk, 2, addrA, 12) // revoke node 1's and origin's copies
	got[1] = e.read(tk, 0, addrA)
	got[2] = e.read(tk, 1, addrB)
	e.write(tk, 1, addrB, 21) // ownership upgrade at node 1
	got[3] = e.read(tk, 2, addrB)
	return got
}

func checkMixed(t *testing.T, got [4]byte) {
	t.Helper()
	want := [4]byte{11, 12, 20, 21}
	if got != want {
		t.Fatalf("workload read %v, want %v", got, want)
	}
}

func TestChaosDeadWriterDetectedDuringFetch(t *testing.T) {
	e := newChaosEnv(t, 3, &chaos.Plan{Seed: 1, Crashes: []chaos.Crash{{Node: 1, At: chaos.Duration(time.Millisecond)}}})
	var got byte
	e.eng.Spawn("main", func(tk *sim.Task) {
		e.write(tk, 0, testAddr, 7)
		e.write(tk, 1, testAddr, 9) // node 1 holds the page exclusively
		// Let the install ack land before the crash, so the grant is fully
		// settled and the loss is detected in the fetch path (a crash during
		// the transition window is rolled back instead — see the rollback
		// test below).
		tk.Sleep(time.Millisecond)
		e.net.Chaos().MarkDead(1)
		// A survivor's read must not hang on the dead writer: the origin
		// detects the death in its fetch path and serves zeros.
		got = e.read(tk, 2, testAddr)
		e.m.ReclaimDeadNode(1)
	})
	e.run(t)
	if got != 0 {
		t.Fatalf("read from lost page = %d, want 0", got)
	}
	if st := e.m.Stats(); st.PagesLost != 1 {
		t.Fatalf("PagesLost = %d, want 1", st.PagesLost)
	}
}

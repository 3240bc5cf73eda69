package dsm

import (
	"slices"
	"strings"
	"testing"
)

// entryIn builds a structurally valid dirEntry in the given state, shaped so
// that ev's own argument preconditions are satisfied when the transition is
// legal: node 0 is the home, node 1 is a droppable co-owner in shared
// states, and for EvPullHome the exclusive writer sits away from the home.
func entryIn(state PageState, ev Event) *dirEntry {
	d := newDirEntry(0)
	switch state {
	case StateInvalid:
		// The zero entry.
	case StateSharedRead, StateTransferShared:
		d.owners = 0b11 // home 0 plus reader 1
		d.state = state
	case StateExclusiveWrite, StateTransferExclusive:
		w := 0 // writer at the home, the common shape
		if ev == EvPullHome {
			w = 2 // pullHome requires a writer away from the home
		}
		d.writer = w
		d.owners = 1 << uint(w)
		d.state = state
	}
	return d
}

// applyEvent invokes the one mutating method corresponding to ev.
func applyEvent(d *dirEntry, ev Event) {
	switch ev {
	case EvFirstTouch:
		d.firstTouch()
	case EvBegin:
		d.begin()
	case EvEnd:
		d.end()
	case EvDowngradeWriter:
		d.downgradeWriter()
	case EvPullHome:
		d.pullHome(true)
	case EvGrantShared:
		d.grantShared(3)
	case EvGrantExclusive:
		d.grantExclusive(3)
	case EvDropOwner:
		d.dropOwner(1)
	case EvReclaimHome:
		d.reclaimHome()
	case EvRehome:
		d.rehome(0)
	case EvAdoptHome:
		d.adoptHome(3)
	default:
		panic("unknown event")
	}
}

func panics(f func()) (msg string, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			panicked = true
			if s, ok := r.(string); ok {
				msg = s
			}
		}
	}()
	f()
	return "", false
}

// TestDirectoryStateMachineExhaustive drives every (state × event) pair
// through the directory: legal transitions must complete with the entry's
// structural invariant intact (the methods self-check), and illegal ones
// must be rejected with a panic, never silently absorbed.
func TestDirectoryStateMachineExhaustive(t *testing.T) {
	legal := 0
	for s := PageState(0); s < pageStateCount; s++ {
		for ev := Event(0); ev < eventCount; ev++ {
			d := entryIn(s, ev)
			msg, panicked := panics(func() { applyEvent(d, ev) })
			if LegalTransition(s, ev) {
				legal++
				if panicked {
					t.Errorf("%v in %v: legal transition panicked: %s", ev, s, msg)
					continue
				}
				// The entry must land in a state consistent with its
				// ownership record (check() ran inside the method; verify
				// the busy/settled split here as an independent witness).
				if d.busy() && d.state != d.transferState() {
					t.Errorf("%v in %v: busy entry in state %v inconsistent with writer %d", ev, s, d.state, d.writer)
				}
				if !d.busy() && d.state != StateInvalid && d.state != d.settledState() {
					t.Errorf("%v in %v: settled entry in state %v inconsistent with writer %d", ev, s, d.state, d.writer)
				}
			} else {
				if !panicked {
					t.Errorf("%v in %v: illegal transition silently accepted (state now %v)", ev, s, d.state)
				} else if !strings.Contains(msg, "illegal directory transition") {
					t.Errorf("%v in %v: rejected with the wrong panic: %s", ev, s, msg)
				}
			}
		}
	}
	// Pin the legality table's size: a transition added or removed without
	// updating this count (and the reasoning behind it) fails loudly.
	if want := 21; legal != want {
		t.Errorf("legality table has %d transitions, want %d", legal, want)
	}
}

// TestDirectoryArgumentPreconditions covers the panics that guard method
// arguments beyond the (state × event) table: the home and the exclusive
// writer can never be dropped, the home cannot pull from itself, and only
// the home's own copy can be downgraded in place.
func TestDirectoryArgumentPreconditions(t *testing.T) {
	cases := []struct {
		name string
		run  func()
	}{
		{"dropOwner(home)", func() {
			d := entryIn(StateSharedRead, EvDropOwner)
			d.dropOwner(0)
		}},
		{"dropOwner(writer)", func() {
			d := newDirEntry(0)
			d.writer, d.owners, d.state = 1, 1<<1, StateTransferExclusive
			d.dropOwner(1)
		}},
		{"pullHome(self)", func() {
			d := newDirEntry(0)
			d.writer, d.owners, d.state = 0, 1<<0, StateTransferExclusive
			d.pullHome(false)
		}},
		{"downgradeWriter(remote)", func() {
			d := newDirEntry(0)
			d.writer, d.owners, d.state = 1, 1<<1, StateTransferExclusive
			d.downgradeWriter()
		}},
	}
	for _, tc := range cases {
		if _, panicked := panics(tc.run); !panicked {
			t.Errorf("%s: precondition violation not rejected", tc.name)
		}
	}
}

// TestLegalTransitionBounds checks the out-of-range inputs the table lookup
// must reject rather than index past the array.
func TestLegalTransitionBounds(t *testing.T) {
	if LegalTransition(pageStateCount, EvBegin) {
		t.Error("out-of-range state reported legal")
	}
	if LegalTransition(StateInvalid, eventCount) {
		t.Error("out-of-range event reported legal")
	}
}

// TestStateAndEventStrings pins the diagnostic names (they appear in panic
// messages and must stay greppable).
func TestStateAndEventStrings(t *testing.T) {
	for s := PageState(0); s < pageStateCount; s++ {
		if strings.HasPrefix(s.String(), "PageState(") {
			t.Errorf("state %d has no name", s)
		}
	}
	for ev := Event(0); ev < eventCount; ev++ {
		if strings.HasPrefix(ev.String(), "Event(") {
			t.Errorf("event %d has no name", ev)
		}
	}
	if PageState(200).String() != "PageState(200)" || Event(200).String() != "Event(200)" {
		t.Error("unknown values must fall back to numeric names")
	}
}

// TestDirectoryTables runs the table operations, dropRange and the route
// operations over a one-host and an n-host directory from the same cases:
// what differs between the placements is which nodes read one table, and
// that is read off the directory, not the case.
func TestDirectoryTables(t *testing.T) {
	const nodes, lo, hi = 4, 100, 139
	for _, proto := range []Protocol{HomeMigrate, DistributedManager} {
		t.Run(proto.String(), func(t *testing.T) {
			m := newEnv(t, nodes, protoParams(proto), nil).m
			d := &m.dir
			sameTable := func(a, b int) bool { return d.tables[a] == d.tables[b] }
			entries := make(map[uint64]*dirEntry)
			for vpn := uint64(lo); vpn <= hi; vpn++ {
				entries[vpn] = m.place(int(vpn%nodes), vpn)
			}
			for vpn, de := range entries {
				for n := 0; n < nodes; n++ {
					got, ok := d.get(n, vpn)
					if want := sameTable(n, de.home); ok != want || ok && got != de {
						t.Fatalf("get(%d, %d) = %p, %v; want present=%v", n, vpn, got, ok, want)
					}
				}
				if got, ok := d.find(vpn); !ok || got != de {
					t.Fatalf("find(%d) = %p, %v", vpn, got, ok)
				}
			}
			if _, ok := d.find(hi + 1); ok {
				t.Fatal("find of a page never placed")
			}

			// walk: every entry in range once, host by host in ascending
			// order, ascending VPN within a host — while fn moves each entry
			// it is handed into the first host's table (one the walk has
			// already snapshotted, so nothing is visited twice).
			type visit struct {
				host int
				vpn  uint64
			}
			var seen []visit
			d.walk(lo+5, hi-5, func(host int, vpn uint64, de *dirEntry) bool {
				if !sameTable(host, de.home) || entries[vpn] != de {
					t.Fatalf("walk handed vpn %d at host %d, home %d", vpn, host, de.home)
				}
				seen = append(seen, visit{host, vpn})
				d.remove(de.home, vpn)
				de.home = d.hosts[0]
				d.put(de.home, vpn, de)
				return true
			})
			if len(seen) != hi-lo+1-10 {
				t.Fatalf("walk visited %d entries, want %d", len(seen), hi-lo+1-10)
			}
			if !slices.IsSortedFunc(seen, func(a, b visit) int {
				if a.host != b.host {
					return a.host - b.host
				}
				return int(a.vpn) - int(b.vpn)
			}) {
				t.Fatalf("walk order: %v", seen)
			}
			n := 0
			d.walk(lo, hi, func(int, uint64, *dirEntry) bool { n++; return n < 3 })
			if n != 3 {
				t.Fatalf("walk ran fn %d times after it returned false at 3", n)
			}

			// dropRange: all or nothing on a busy entry; then the entries, every
			// node's routes and the hosts' mappings in the range, and only those.
			for node, ns := range m.nodes {
				for vpn := uint64(lo); vpn <= hi; vpn++ {
					ns.routes.point(vpn, (node+1)%nodes, vpn)
				}
			}
			entries[lo+12].begin()
			if vpn, busy := m.dropRange(lo+10, lo+19); !busy || vpn != lo+12 {
				t.Fatalf("dropRange over a busy entry = %d, %v", vpn, busy)
			}
			if _, ok := d.find(lo + 10); !ok {
				t.Fatal("a refused dropRange removed an entry")
			}
			entries[lo+12].end()
			if _, busy := m.dropRange(lo+10, lo+19); busy {
				t.Fatal("dropRange reports busy on an idle range")
			}
			for vpn := uint64(lo); vpn <= hi; vpn++ {
				dropped := vpn >= lo+10 && vpn <= lo+19
				if _, ok := d.find(vpn); ok == dropped {
					t.Fatalf("vpn %d: entry present=%v, dropped=%v", vpn, ok, dropped)
				}
				for node, ns := range m.nodes {
					if _, ok := ns.routes[vpn]; ok == dropped {
						t.Fatalf("vpn %d: node %d route present=%v, dropped=%v", vpn, node, ok, dropped)
					}
				}
				for _, h := range d.hosts {
					if dropped && m.presentFrame(h, vpn) != nil {
						t.Fatalf("vpn %d still mapped at host %d", vpn, h)
					}
				}
			}
			d.remove(entries[lo].home, lo)
			if _, ok := d.find(lo); ok {
				t.Fatal("find after remove")
			}
		})
	}
}

func TestRouteOperations(t *testing.T) {
	rt := make(routes)
	if r := rt.at(7); r.home != -1 || r.epoch != 0 {
		t.Fatalf("route of an unknown page = %+v", r)
	}
	rt.point(7, 2, 5)
	rt.point(7, 3, 4) // point stores what it is given: the gate is the policy's
	if r := rt.at(7); r != (route{3, 4}) {
		t.Fatalf("after point = %+v", r)
	}
	rt.clear(7, 2)
	if r := rt.at(7); r != (route{-1, 4}) {
		t.Fatalf("clear dropped the larger stored epoch: %+v", r)
	}
	rt.clear(7, 9)
	if r := rt.at(7); r != (route{-1, 9}) {
		t.Fatalf("clear kept the smaller stored epoch: %+v", r)
	}
	rt.point(8, 1, 0)
	rt.clear(8, 0)
	if _, ok := rt[8]; ok {
		t.Fatal("a route with neither pointer nor epoch is still a record")
	}
	rt.point(1, 0, 1)
	rt.point(20, 0, 1)
	rt.dropRange(7, 19)
	if len(rt) != 2 || rt.at(1).home != 0 || rt.at(20).home != 0 {
		t.Fatalf("dropRange(7, 19) left %v", rt)
	}
}

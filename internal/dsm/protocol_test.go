package dsm

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"dex/internal/chaos"
	"dex/internal/fabric"
	"dex/internal/mem"
	"dex/internal/obs"
	"dex/internal/sim"
)

func TestParseProtocol(t *testing.T) {
	cases := map[string]Protocol{
		"wi": WriteInvalidate, "write-invalidate": WriteInvalidate,
		"home": HomeMigrate, "home-migrate": HomeMigrate,
		"dist": DistributedManager, "distributed-manager": DistributedManager,
	}
	for s, want := range cases {
		got, err := ParseProtocol(s)
		if err != nil || got != want {
			t.Errorf("ParseProtocol(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	for _, bad := range []string{"mesi", "", "dist ", "DIST"} {
		if _, err := ParseProtocol(bad); err == nil {
			t.Errorf("ParseProtocol(%q) accepted an unknown name", bad)
		}
	}
	if WriteInvalidate.String() != "write-invalidate" || HomeMigrate.String() != "home-migrate" ||
		DistributedManager.String() != "distributed-manager" {
		t.Errorf("protocol names: %v, %v, %v", WriteInvalidate, HomeMigrate, DistributedManager)
	}
}

// TestProtocolRegistryDrivesHelp: the flag help and the accepted-names list
// are derived from the same registry that ParseProtocol consults, so every
// advertised name must parse back to its own row and the help must mention
// each of them.
func TestProtocolRegistryDrivesHelp(t *testing.T) {
	help := ProtocolHelp()
	for _, pi := range protocolRegistry {
		for _, name := range []string{pi.name, pi.long} {
			if got, err := ParseProtocol(name); err != nil || got != pi.proto {
				t.Errorf("advertised name %q parses to %v, %v; want %v", name, got, err, pi.proto)
			}
			if !strings.Contains(help, name) {
				t.Errorf("ProtocolHelp() omits advertised name %q:\n%s", name, help)
			}
		}
	}
}

// TestHomeMigrateFollowsWriter checks the policy's defining move: after a
// remote node takes a page exclusively, the directory home is that node, and
// the old home holds a hint pointing at it.
func TestHomeMigrateFollowsWriter(t *testing.T) {
	e := newEnv(t, 3, homeParams(), nil)
	e.eng.Spawn("main", func(tk *sim.Task) {
		e.write(tk, 1, testAddr, 42)
	})
	e.run(t)
	de, ok := e.m.dir.find(testAddr.VPN())
	if !ok {
		t.Fatal("no directory entry after the write")
	}
	if de.home != 1 || de.writer != 1 {
		t.Fatalf("home = %d, writer = %d; want both 1 after a remote write", de.home, de.writer)
	}
	if h := e.m.nodes[0].routes.at(testAddr.VPN()).home; h != 1 {
		t.Fatalf("origin's home hint = %d, want 1", h)
	}
}

// TestHomeMigrateRedirectRepairsStaleHint sends a reader with no hint to the
// origin after the home has moved away: the origin must redirect (not serve),
// the reader must land at the real home, read the right data, and come away
// with a repaired hint.
func TestHomeMigrateRedirectRepairsStaleHint(t *testing.T) {
	e := newEnv(t, 3, homeParams(), nil)
	var got byte
	e.eng.Spawn("main", func(tk *sim.Task) {
		e.write(tk, 1, testAddr, 42) // home migrates to node 1
		got = e.read(tk, 2, testAddr)
	})
	e.run(t)
	if got != 42 {
		t.Fatalf("read after redirect = %d, want 42", got)
	}
	if h := e.m.nodes[2].routes.at(testAddr.VPN()).home; h != 1 {
		t.Fatalf("reader's home hint = %d, want 1 (learned from the redirect)", h)
	}
	de, _ := e.m.dir.find(testAddr.VPN())
	if de.home != 1 || de.writer != -1 || !de.has(1) || !de.has(2) {
		t.Fatalf("entry after redirected read: home=%d writer=%d owners=%#x", de.home, de.writer, de.owners)
	}
}

// TestHomeMigrateWriterLocalFaults: once the home follows a writer,
// that node's repeated faults on its pages resolve through the local
// directory with no request messages at all.
func TestHomeMigrateWriterLocalFaults(t *testing.T) {
	e := newEnv(t, 2, homeParams(), nil)
	e.eng.Spawn("main", func(tk *sim.Task) {
		e.write(tk, 1, testAddr, 1) // home moves to node 1
		_ = e.read(tk, 0, testAddr) // origin takes a shared copy back
		before := e.net.Stats().SmallSends
		e.write(tk, 1, testAddr, 2) // upgrade served by node 1's own directory
		if sends := e.net.Stats().SmallSends - before; sends != 2 {
			// Exactly one revoke + one revoke-ack for the origin's replica;
			// no page request, no grant reply, no install ack.
			t.Errorf("local upgrade used %d small messages, want 2 (revoke round trip only)", sends)
		}
	})
	e.run(t)
}

// pingPong bounces exclusive ownership of one page between nodes 1 and 2 —
// the write-local pattern HomeMigrate exists for. Returns elapsed virtual
// time.
func pingPong(t *testing.T, params Params, iters int) (Stats, fabric.Stats, time.Duration) {
	t.Helper()
	e := newEnv(t, 3, params, nil)
	e.eng.Spawn("main", func(tk *sim.Task) {
		for i := 0; i < iters; i++ {
			e.write(tk, 1+i%2, testAddr, byte(i))
		}
	})
	e.run(t)
	return e.m.Stats(), e.net.Stats(), e.eng.Now()
}

// TestHomeMigrateCutsOriginTraffic is the policy's benefit proof: on an
// ownership ping-pong between two non-origin nodes, WriteInvalidate routes
// every transaction through the origin and pulls the page home each time
// (two page transfers per fault), while HomeMigrate serves each fault at the
// current writer directly (one transfer) once the hints settle.
func TestHomeMigrateCutsOriginTraffic(t *testing.T) {
	const iters = 40
	wiStats, wiNet, wiElapsed := pingPong(t, DefaultParams(), iters)
	hmStats, hmNet, hmElapsed := pingPong(t, homeParams(), iters)
	if wiStats.PageTransfers == 0 {
		t.Fatalf("write-invalidate pulled no pages home: %+v", wiStats)
	}
	if hmStats.PageTransfers != 0 {
		t.Fatalf("home-migrate PageTransfers = %d, want 0 (the home IS the writer)", hmStats.PageTransfers)
	}
	if hmNet.PageSends >= wiNet.PageSends {
		t.Fatalf("page sends: home-migrate %d, write-invalidate %d; want fewer", hmNet.PageSends, wiNet.PageSends)
	}
	if hmElapsed >= wiElapsed {
		t.Fatalf("elapsed: home-migrate %v, write-invalidate %v; want faster", hmElapsed, wiElapsed)
	}
}

// TestHomeMigratePrefetchDropsRedirected: a prefetch request for a page whose
// home moved away is redirected, and the hint drops it (best effort) instead
// of following the redirect; demand faulting still reaches the real home.
func TestHomeMigratePrefetchDropsRedirected(t *testing.T) {
	e := newEnv(t, 3, homeParams(), nil)
	addrB := testAddr + mem.Addr(mem.PageSize)
	e.eng.Spawn("main", func(tk *sim.Task) {
		e.write(tk, 0, testAddr, 7) // stays home at the origin
		e.write(tk, 1, addrB, 8)    // home migrates to node 1
		n, err := e.m.Prefetch(tk, Ctx{Node: 2}, prefetchVPNs(testAddr, 2))
		if err != nil {
			t.Errorf("Prefetch: %v", err)
		}
		if n != 1 {
			t.Errorf("Prefetch granted %d pages, want 1 (the migrated page's request is redirected)", n)
		}
		if got := e.read(tk, 2, addrB); got != 8 {
			t.Errorf("demand read of bounced page = %d, want 8", got)
		}
	})
	e.run(t)
}

// TestHomeMigrateAcceptsChaos pins the removal of the old construction-time
// guard: home-migrate's recovery paths are hardened against fault injection
// (retransmission, dead-home failover, rehoming), so a manager with an
// injector attached must construct and serve traffic normally.
func TestHomeMigrateAcceptsChaos(t *testing.T) {
	eng := sim.NewEngine(1)
	net := fabric.New(eng, fabric.DefaultParams(2))
	net.SetChaos(chaos.NewInjector(&chaos.Plan{
		Seed: 1,
		Drop: []chaos.LinkRule{{Src: chaos.Any, Dst: chaos.Any, Prob: 0.1}},
	}, 2))
	if _, panicked := panics(func() { New(eng, net, homeParams(), 1, 0, 2, nil) }); panicked {
		t.Fatal("New rejected home-migrate with a chaos injector attached")
	}
}

// TestLatenciesReturnsCopy: the per-fault latencies are read out of the
// recorder's spans, and what it hands to callers must be a snapshot —
// mutating it must not corrupt (or observe) the record.
func TestLatenciesReturnsCopy(t *testing.T) {
	rec := obs.NewFaultRecorder()
	e := newEnv(t, 2, DefaultParams(), rec)
	e.eng.Spawn("main", func(tk *sim.Task) {
		e.write(tk, 0, testAddr, 1)
		_ = e.read(tk, 1, testAddr)
		e.write(tk, 1, testAddr, 2)
	})
	e.run(t)
	got := rec.Spans()
	if len(got) == 0 {
		t.Fatal("no fault spans recorded")
	}
	want := faultEvents(rec)
	for i := range got {
		got[i].Dur = -1
	}
	if again := faultEvents(rec); !reflect.DeepEqual(again, want) {
		t.Fatalf("Spans returned the recorder's own storage, not a copy:\n got %+v\nwant %+v", again, want)
	}
}

// TestWhereDecisions pins, case by case, the decisions resident, lookup and
// route make for every placement in protocolRegistry: one function reads a
// node's table, its routes and the anchor ring alike, so each way it can
// answer is a named row over a hand-built directory state on three nodes
// (origin 0). A route with home -1 is a record that keeps only its epoch.
func TestWhereDecisions(t *testing.T) {
	type state struct {
		home      int    // the entry's home, -1 for no entry anywhere
		busy      bool   // the entry's transaction is still open
		route     *route // at the asking node
		dead      int    // a confirmed-dead node, -1 for none
		reclaimed bool   // and its reclaim has committed
	}
	cases := []struct {
		name   string
		proto  string
		anchor int // the page's anchor
		at     int // the asking node
		state
		route  routing
		panics bool // route refuses the request
		lookup residence
	}{
		{name: "serve here: first touch at the origin", proto: "wi", at: 0,
			state: state{home: -1, dead: -1}, route: routing{home: 0}, lookup: dirFirstTouch},
		{name: "serve here: the origin's entry", proto: "wi", at: 0,
			state: state{home: 0, dead: -1}, route: routing{home: 0}, lookup: dirHere},
		{name: "request away from the origin", proto: "wi", at: 1,
			state: state{home: 0, dead: -1}, panics: true, lookup: dirElsewhere},
		{name: "serve here: first touch at the origin anchor", proto: "home", at: 0,
			state: state{home: -1, dead: -1}, route: routing{home: 0}, lookup: dirFirstTouch},
		{name: "serve here: the node's own entry", proto: "home", at: 1,
			state: state{home: 1, dead: -1}, route: routing{home: 1}, lookup: dirHere},
		{name: "one hop along the origin's route", proto: "home", at: 0,
			state: state{home: 1, route: &route{home: 1, epoch: 3}, dead: -1},
			route: routing{home: 1, epoch: 3}, lookup: dirElsewhere},
		{name: "anchor restart at the origin", proto: "home", at: 2,
			state: state{home: -1, dead: -1}, route: routing{home: 0}, lookup: dirElsewhere},
		{name: "the origin knows the page, its home died: NACK", proto: "home", at: 0,
			state: state{home: 1, route: &route{home: -1, epoch: 3}, dead: 1},
			route: routing{busy: true}, lookup: dirElsewhere},
		{name: "serve here: first touch at the anchor", proto: "dist", anchor: 1, at: 1,
			state: state{home: -1, dead: -1}, route: routing{home: 1}, lookup: dirFirstTouch},
		{name: "serve here: the shard's own entry", proto: "dist", anchor: 2, at: 1,
			state: state{home: 1, dead: -1}, route: routing{home: 1}, lookup: dirHere},
		{name: "one hop along a route, carrying its epoch", proto: "dist", anchor: 1, at: 1,
			state: state{home: 2, route: &route{home: 2, epoch: 7}, dead: -1},
			route: routing{home: 2, epoch: 7}, lookup: dirElsewhere},
		{name: "anchor restart at a shard", proto: "dist", anchor: 2, at: 1,
			state: state{home: 0, dead: -1}, route: routing{home: 2}, lookup: dirElsewhere},
		{name: "first touch at the live ring shard of a reclaimed dead anchor", proto: "dist", anchor: 2, at: 0,
			state: state{home: -1, dead: 2, reclaimed: true}, route: routing{home: 0}, lookup: dirFirstTouch},
		{name: "anchor restart at a dead anchor not yet reclaimed", proto: "dist", anchor: 2, at: 0,
			state: state{home: -1, dead: 2}, route: routing{home: 2}, lookup: dirElsewhere},
		{name: "the anchor knows the page, its home died: NACK", proto: "dist", anchor: 1, at: 1,
			state: state{home: 2, route: &route{home: -1, epoch: 4}, dead: 2},
			route: routing{busy: true}, lookup: dirElsewhere},
	}
	covered := map[string]bool{}
	// build gives each decision a fresh manager in c's state.
	build := func(t *testing.T, proto Protocol, c state, anchor, at int) (*env, uint64) {
		e := newChaosEnvParams(t, 3, &chaos.Plan{Seed: 1}, protoParams(proto))
		vpn := anchoredAddrs(t, e.m, anchor, 1)[0].VPN()
		if c.home >= 0 {
			de := newDirEntry(c.home)
			de.adoptHome(c.home)
			if c.busy {
				de.begin()
			}
			e.m.dir.put(c.home, vpn, de)
		}
		if c.route != nil {
			e.m.nodes[at].routes[vpn] = *c.route
		}
		if c.dead >= 0 {
			e.net.Chaos().MarkDead(c.dead)
			e.m.nodes[c.dead].reclaimed = c.reclaimed
		}
		return e, vpn
	}
	for _, c := range cases {
		t.Run(c.proto+"/"+c.name, func(t *testing.T) {
			proto, err := ParseProtocol(c.proto)
			if err != nil {
				t.Fatal(err)
			}
			covered[c.proto] = true
			e, vpn := build(t, proto, c.state, c.anchor, c.at)
			req := &pageRequest{pid: e.m.pid, vpn: vpn, node: (c.at + 1) % 3}
			var got routing
			_, panicked := panics(func() { got = e.m.route(c.at, req) })
			switch {
			case panicked != c.panics:
				t.Errorf("route panicked = %v, want %v", panicked, c.panics)
			case got != c.route:
				t.Errorf("route = %+v, want %+v", got, c.route)
			}

			e, vpn = build(t, proto, c.state, c.anchor, c.at)
			if _, where := e.m.lookup(c.at, vpn); where != c.lookup {
				t.Errorf("lookup = %d, want %d", where, c.lookup)
			}
		})
	}
	for _, pi := range protocolRegistry {
		if !covered[pi.name] {
			t.Errorf("no decision row for %s", pi.name)
		}
	}
}

package main

import (
	"bytes"
	"io"
	"os"
	"strings"
	"testing"
)

// goldenArgs is the campaign pinned by testdata/golden.txt: a drop sweep
// with duplication, then a crash campaign. Regenerate with:
//
//	go run ./cmd/dexchaos -quiet -app kmn -nodes 3 -threads 4 -drops 0,0.1,0.3 -dup 0.2 >  cmd/dexchaos/testdata/golden.txt
//	go run ./cmd/dexchaos -quiet -app kmn -nodes 3 -threads 4 -drops 0 -crash 3ms      >> cmd/dexchaos/testdata/golden.txt
var goldenArgs = [][]string{
	{"-quiet", "-app", "kmn", "-nodes", "3", "-threads", "4", "-drops", "0,0.1,0.3", "-dup", "0.2"},
	{"-quiet", "-app", "kmn", "-nodes", "3", "-threads", "4", "-drops", "0", "-crash", "3ms"},
}

func campaign(t *testing.T, extra ...string) string {
	t.Helper()
	var out bytes.Buffer
	for _, args := range goldenArgs {
		if err := run(append(append([]string(nil), args...), extra...), &out, io.Discard); err != nil {
			t.Fatalf("run %v: %v", args, err)
		}
	}
	return out.String()
}

// TestChaosGoldenBytes pins the survival/latency tables to committed golden
// bytes: a change in fault injection, recovery, or protocol behaviour under
// faults shows up as a diff here.
func TestChaosGoldenBytes(t *testing.T) {
	golden, err := os.ReadFile("testdata/golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	got := campaign(t)
	if got != string(golden) {
		t.Fatalf("dexchaos output diverged from testdata/golden.txt; regenerate only if the change is intended:\n%s", got)
	}
}

// TestChaosParallelOutputByteIdentical: the table is byte-for-byte the same
// whatever the worker-pool width.
func TestChaosParallelOutputByteIdentical(t *testing.T) {
	seq := campaign(t, "-parallel", "1")
	par := campaign(t, "-parallel", "8")
	if seq != par {
		t.Fatalf("stdout differs between -parallel 1 and -parallel 8:\n--- 1 ---\n%s\n--- 8 ---\n%s", seq, par)
	}
	if !strings.Contains(seq, "status") || !strings.Contains(seq, "FAIL") {
		t.Fatalf("unexpected campaign output:\n%s", seq)
	}
}

// TestChaosDistGoldenBytes pins the same campaigns under the sharded
// directory with checkpoint/restart: every cell survives, including the
// crash campaign — the crashed node is a directory shard, so its slice must
// be rebuilt (a non-zero rebuilt column) for the survivors to finish.
// Regenerate with the golden_home.txt recipe with -protocol dist.
func TestChaosDistGoldenBytes(t *testing.T) {
	golden, err := os.ReadFile("testdata/golden_dist.txt")
	if err != nil {
		t.Fatal(err)
	}
	got := campaign(t, "-protocol", "dist", "-restart")
	if got != string(golden) {
		t.Fatalf("distributed-manager output diverged from testdata/golden_dist.txt; regenerate only if the change is intended:\n%s", got)
	}
	if strings.Contains(got, "FAIL") {
		t.Fatalf("distributed-manager campaign with restart must survive every cell:\n%s", got)
	}
}

// TestChaosHomeGoldenBytes pins the same campaigns under the home-migrate
// protocol with checkpoint/restart: every cell survives (no FAIL rows),
// including the crash campaign that fails without restart. Regenerate with:
//
//	go run ./cmd/dexchaos -quiet -app kmn -nodes 3 -threads 4 -drops 0,0.1,0.3 -dup 0.2 -protocol home -restart >  cmd/dexchaos/testdata/golden_home.txt
//	go run ./cmd/dexchaos -quiet -app kmn -nodes 3 -threads 4 -drops 0 -crash 3ms -protocol home -restart      >> cmd/dexchaos/testdata/golden_home.txt
func TestChaosHomeGoldenBytes(t *testing.T) {
	golden, err := os.ReadFile("testdata/golden_home.txt")
	if err != nil {
		t.Fatal(err)
	}
	got := campaign(t, "-protocol", "home", "-restart")
	if got != string(golden) {
		t.Fatalf("home-migrate output diverged from testdata/golden_home.txt; regenerate only if the change is intended:\n%s", got)
	}
	if strings.Contains(got, "FAIL") {
		t.Fatalf("home-migrate campaign with restart must survive every cell:\n%s", got)
	}
}

// TestChaosRestartGoldenBytes pins the write-invalidate campaigns with
// checkpoint/restart enabled: 100%% survival, crash campaign included.
// Regenerate with the golden_home.txt recipe minus -protocol home.
func TestChaosRestartGoldenBytes(t *testing.T) {
	golden, err := os.ReadFile("testdata/golden_restart.txt")
	if err != nil {
		t.Fatal(err)
	}
	got := campaign(t, "-restart")
	if got != string(golden) {
		t.Fatalf("restart output diverged from testdata/golden_restart.txt; regenerate only if the change is intended:\n%s", got)
	}
	if strings.Contains(got, "FAIL") {
		t.Fatalf("restart campaign must survive every cell:\n%s", got)
	}
}

// TestChaosRestartParallelByteIdentical: checkpoint/restart campaigns under
// both protocols are byte-identical at any worker-pool width.
func TestChaosRestartParallelByteIdentical(t *testing.T) {
	for _, proto := range [][]string{{"-restart"}, {"-restart", "-protocol", "home"}, {"-restart", "-protocol", "dist"}} {
		seq := campaign(t, append(proto, "-parallel", "1")...)
		par := campaign(t, append(proto, "-parallel", "8")...)
		if seq != par {
			t.Fatalf("%v stdout differs between -parallel 1 and -parallel 8:\n--- 1 ---\n%s\n--- 8 ---\n%s", proto, seq, par)
		}
	}
}

// TestChaosFailUnder: the campaign exits non-zero when survival falls below
// the -fail-under threshold and zero once restart pushes survival back up.
func TestChaosFailUnder(t *testing.T) {
	crashArgs := []string{"-quiet", "-app", "kmn", "-nodes", "3", "-threads", "4", "-drops", "0", "-crash", "3ms"}
	if err := run(append(append([]string(nil), crashArgs...), "-fail-under", "1"), io.Discard, io.Discard); err == nil {
		t.Fatal("crash campaign without restart passed -fail-under 1")
	}
	if err := run(append(append([]string(nil), crashArgs...), "-fail-under", "1", "-restart"), io.Discard, io.Discard); err != nil {
		t.Fatalf("crash campaign with restart failed -fail-under 1: %v", err)
	}
	// The sharded directory holds the 100% survival gate even when the
	// crashed node is a directory shard whose slice must be rebuilt.
	if err := run(append(append([]string(nil), crashArgs...), "-fail-under", "1", "-restart", "-protocol", "dist"), io.Discard, io.Discard); err != nil {
		t.Fatalf("dist crash campaign with restart failed -fail-under 1: %v", err)
	}
	if err := run([]string{"-fail-under", "1.5"}, io.Discard, io.Discard); err == nil {
		t.Fatal("out-of-range -fail-under accepted")
	}
}

func TestChaosBadFlags(t *testing.T) {
	if err := run([]string{"-app", "nope"}, io.Discard, io.Discard); err == nil {
		t.Fatal("unknown app accepted")
	}
	if err := run([]string{"-drops", "x"}, io.Discard, io.Discard); err == nil {
		t.Fatal("bad drop rate accepted")
	}
	if err := run([]string{"-nodes", "1", "-crash", "1ms"}, io.Discard, io.Discard); err == nil {
		t.Fatal("crash on a 1-node cluster accepted")
	}
	if err := run([]string{"-size", "bogus"}, io.Discard, io.Discard); err == nil {
		t.Fatal("unknown size accepted")
	}
	for _, bad := range [][]string{
		{"-nodes", "0"},
		{"-nodes", "-1"},
		{"-nodes", "65", "-drops", "0"}, // once a panic inside a cell's goroutine
		{"-threads", "0"},
		{"-cores", "4"},
		{"-parallel", "-1"},
		{"-app", "ep", "-restart"},
	} {
		err := run(bad, io.Discard, io.Discard)
		if err == nil {
			t.Fatalf("bad flags accepted: %v", bad)
		}
		if msg := err.Error(); strings.Contains(msg, "\n") || strings.Contains(msg, "goroutine") {
			t.Fatalf("%v: error %q is not one line", bad, msg)
		}
	}
	// Fault flags build a plan that is validated before any cell runs.
	for _, bad := range [][]string{
		{"-dup", "1.5"},
		{"-drops", "0,2"},
		{"-drops", "1"},
		{"-crash", "-5ms"},
		{"-delay", "-1ms"},
	} {
		err := run(bad, io.Discard, io.Discard)
		if err == nil {
			t.Fatalf("bad flags accepted: %v", bad)
		}
		if !strings.HasPrefix(err.Error(), bad[0]+" ") || strings.Contains(err.Error(), "\n") {
			t.Fatalf("%v: error %q, want one line starting with the flag", bad, err)
		}
	}
}

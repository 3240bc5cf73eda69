package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunList(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunApp(t *testing.T) {
	if err := run([]string{"-app", "ep", "-nodes", "2", "-variant", "initial", "-size", "test"}); err != nil {
		t.Fatal(err)
	}
}

// captureStdout runs fn with os.Stdout redirected to a pipe and returns
// what it wrote.
func captureStdout(t *testing.T, fn func() error) []byte {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan []byte)
	go func() {
		var buf bytes.Buffer
		buf.ReadFrom(r)
		done <- buf.Bytes()
	}()
	ferr := fn()
	w.Close()
	os.Stdout = old
	out := <-done
	if ferr != nil {
		t.Fatal(ferr)
	}
	return out
}

func TestRunTraceFlag(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	captureStdout(t, func() error {
		return run([]string{"-app", "ep", "-nodes", "2", "-trace", path, "-metrics"})
	})
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("-trace output is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("-trace output has no events")
	}
}

func TestRunJSONFlag(t *testing.T) {
	out := captureStdout(t, func() error {
		return run([]string{"-app", "ep", "-nodes", "2", "-json"})
	})
	var doc struct {
		App    string `json:"app"`
		Nodes  int    `json:"nodes"`
		Report struct {
			TLBPerNode []struct {
				Hits    uint64
				Misses  uint64
				Flushes uint64
			}
		} `json:"report"`
	}
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatalf("-json output is not valid JSON: %v\n%s", err, out)
	}
	if doc.App != "ep" || doc.Nodes != 2 {
		t.Fatalf("unexpected identity: %+v", doc)
	}
	if len(doc.Report.TLBPerNode) != 2 {
		t.Fatalf("TLBPerNode has %d entries, want 2", len(doc.Report.TLBPerNode))
	}
}

// originCrashPlan writes a fault plan that crashes node 0 — the origin every
// tool starts its process at — and returns its path.
func originCrashPlan(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "origin-crash.json")
	if err := os.WriteFile(path, []byte(`{"crashes":[{"node":0,"at":"1ms"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunErrors(t *testing.T) {
	const eight = `unknown application "srv" (one of grp, kmn, bt, ep, ft, blk, bfs, bp)`
	if err := run([]string{"-app", "srv"}); err == nil || err.Error() != eight {
		t.Fatalf("-app srv: got %v, want %s", err, eight)
	}
	if err := run([]string{"-app", "ep", "-variant", "bogus"}); err == nil {
		t.Fatal("unknown variant accepted")
	}
	if err := run([]string{"-app", "ep", "-size", "bogus"}); err == nil {
		t.Fatal("unknown size accepted")
	}
	for _, bad := range [][]string{
		{"-app", "ep", "-nodes", "0"},
		{"-app", "ep", "-nodes", "-1"},
		{"-app", "ep", "-nodes", "-2"},
		{"-app", "ep", "-nodes", "65"},
		{"-app", "ep", "-threads", "0"},
		{"-app", "ep", "-cores", "4"},
		{"-app", "kmn", "-nodes", "3", "-chaos", originCrashPlan(t)},
	} {
		err := run(bad)
		if err == nil {
			t.Fatalf("bad flags accepted: %v", bad)
		}
		if msg := err.Error(); strings.Contains(msg, "\n") || strings.Contains(msg, "goroutine") {
			t.Fatalf("%v: error %q is not one line", bad, msg)
		}
	}
	err := run([]string{"-app", "ep", "-restart"})
	if err == nil {
		t.Fatal("-restart accepted for an app without checkpoint support")
	}
	if !strings.Contains(err.Error(), "(supported: kmn)") {
		t.Fatalf("-restart error does not list the capable apps: %v", err)
	}
}

func TestRunProtocolFlag(t *testing.T) {
	// Result checks are policy-independent: the home-migrate run must
	// print the same per-thread check line as the default protocol.
	wi := captureStdout(t, func() error {
		return run([]string{"-app", "kmn", "-nodes", "3"})
	})
	home := captureStdout(t, func() error {
		return run([]string{"-app", "kmn", "-nodes", "3", "-protocol", "home"})
	})
	check := func(out []byte) string {
		for _, line := range strings.Split(string(out), "\n") {
			if strings.Contains(line, "result") {
				return line
			}
		}
		t.Fatalf("no result line in:\n%s", out)
		return ""
	}
	if c1, c2 := check(wi), check(home); c1 != c2 {
		t.Fatalf("home-migrate result diverged:\nwi:   %s\nhome: %s", c1, c2)
	}
	if err := run([]string{"-app", "ep", "-protocol", "bogus"}); err == nil {
		t.Fatal("unknown protocol accepted")
	}
}

func TestRunProtocolAcceptsChaos(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plan.json")
	plan := `{"seed": 3, "drop": [{"src": -1, "dst": -1, "prob": 0.2}], "dup": [{"src": -1, "dst": -1, "prob": 0.2}]}`
	if err := os.WriteFile(path, []byte(plan), 0o644); err != nil {
		t.Fatal(err)
	}
	out := captureStdout(t, func() error {
		return run([]string{"-app", "ep", "-nodes", "2", "-protocol", "home", "-chaos", path})
	})
	if !bytes.Contains(out, []byte("chaos:")) {
		t.Fatalf("home-migrate chaos run has no chaos summary:\n%s", out)
	}
}

func TestRunRestartSurvivesCrash(t *testing.T) {
	path := filepath.Join(t.TempDir(), "crash.json")
	plan := `{"seed": 1, "crashes": [{"node": 2, "at": "3ms"}]}`
	if err := os.WriteFile(path, []byte(plan), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, proto := range []string{"wi", "home"} {
		out := captureStdout(t, func() error {
			return run([]string{"-app", "kmn", "-nodes", "3", "-threads", "4",
				"-protocol", proto, "-chaos", path, "-restart"})
		})
		if !bytes.Contains(out, []byte("chaos restart:")) {
			t.Fatalf("protocol %s: no restart summary after a crash:\n%s", proto, out)
		}
	}
}

func TestRunChaosFlag(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plan.json")
	plan := `{"seed": 7, "drop": [{"src": -1, "dst": -1, "prob": 0.1}], "dup": [{"src": -1, "dst": -1, "prob": 0.2}]}`
	if err := os.WriteFile(path, []byte(plan), 0o644); err != nil {
		t.Fatal(err)
	}
	out := captureStdout(t, func() error {
		return run([]string{"-app", "ep", "-nodes", "2", "-chaos", path})
	})
	if !bytes.Contains(out, []byte("chaos:")) {
		t.Fatalf("report has no chaos summary:\n%s", out)
	}
}

func TestRunChaosCrashExitsWithError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "crash.json")
	if err := os.WriteFile(path, []byte(`{"seed": 1, "crashes": [{"node": 1, "at": "3ms"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-app", "kmn", "-nodes", "2", "-chaos", path})
	if err == nil {
		t.Fatal("crash plan run succeeded, want an error")
	}
	if !strings.Contains(err.Error(), "node 1") && !strings.Contains(err.Error(), "crashed") {
		t.Fatalf("error %q does not attribute the crash", err)
	}
}

func TestRunChaosRejectsBadPlan(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	// Node 9 does not exist in a 2-node cluster.
	if err := os.WriteFile(path, []byte(`{"crashes": [{"node": 9, "at": "1ms"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-app", "ep", "-nodes", "2", "-chaos", path}); err == nil {
		t.Fatal("out-of-range crash node accepted")
	}
}

// TestRunFailureExitCode pins the CLI contract end to end: a failing
// application run makes the dexrun binary print the error to stderr and
// exit non-zero. The test re-executes itself as the dexrun main with a
// crash plan that kills the app.
func TestRunFailureExitCode(t *testing.T) {
	if args := os.Getenv("DEXRUN_CHILD_ARGS"); args != "" {
		os.Args = append([]string{"dexrun"}, strings.Split(args, " ")...)
		main()
		return // main exits 1 on failure; reaching here means it succeeded
	}
	path := filepath.Join(t.TempDir(), "crash.json")
	if err := os.WriteFile(path, []byte(`{"seed": 1, "crashes": [{"node": 1, "at": "3ms"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-test.run", "TestRunFailureExitCode")
	cmd.Env = append(os.Environ(), "DEXRUN_CHILD_ARGS=-app kmn -nodes 2 -chaos "+path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() == 0 {
		t.Fatalf("failing run exited with %v, want non-zero (stderr: %s)", err, stderr.Bytes())
	}
	if !bytes.Contains(stderr.Bytes(), []byte("dexrun:")) {
		t.Fatalf("stderr does not carry the app error:\n%s", stderr.Bytes())
	}
}

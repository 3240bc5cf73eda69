package main

import (
	"bytes"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func TestBenchList(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "table2") {
		t.Fatalf("listing missing experiments:\n%s", out.String())
	}
}

func TestBenchSingleExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "table2"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Table II") {
		t.Fatalf("missing table:\n%s", out.String())
	}
}

func TestBenchUnknownExperiment(t *testing.T) {
	if err := run([]string{"-exp", "nope"}, io.Discard, io.Discard); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestBenchBadFlags(t *testing.T) {
	if err := run([]string{"-cores", "4"}, io.Discard, io.Discard); err == nil || !strings.Contains(err.Error(), "not defined: -cores") {
		t.Fatalf("-cores 4: err = %v, want the flag package's unknown-flag error", err)
	}
	if err := run([]string{"-parallel", "-1"}, io.Discard, io.Discard); err == nil {
		t.Fatal("-parallel -1 accepted")
	}
}

// TestBenchGoldenBytes pins the full test-size table set to committed
// golden bytes: any change to simulation behaviour — including one caused
// by wiring the observability layer through the hot paths — shows up as a
// diff here. Regenerate with:
//
//	go run ./cmd/dexbench -quiet > cmd/dexbench/testdata/golden.txt
func TestBenchGoldenBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	golden, err := os.ReadFile("testdata/golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-quiet"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), golden) {
		t.Fatalf("dexbench output diverged from testdata/golden.txt (%d vs %d bytes); regenerate only if the change is intended",
			out.Len(), len(golden))
	}
}

// TestBenchTable1WithoutSourceTree: a tool built with -trimpath and run away
// from the checkout prints the same Table I as the golden; nothing in a table
// may depend on the source tree being there at run time.
func TestBenchTable1WithoutSourceTree(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the tool")
	}
	golden, err := os.ReadFile("testdata/golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "dexbench")
	if out, err := exec.Command("go", "build", "-trimpath", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build -trimpath: %v\n%s", err, out)
	}
	cmd := exec.Command(bin, "-quiet", "-exp", "table1")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("dexbench -quiet -exp table1: %v", err)
	}
	if len(out) == 0 || !bytes.Contains(golden, out) {
		t.Fatalf("Table I from a -trimpath build is not the golden's:\n%s", out)
	}
}

// TestBenchParallelOutputByteIdentical is the harness-level determinism
// guarantee: the tables on stdout are byte-for-byte the same whatever the
// worker-pool width. Experiments that share memoized cells (table2/figure3)
// and multi-cell ablations cover the interesting interleavings; stderr
// (progress, timing) is the only place allowed to differ.
func TestBenchParallelOutputByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several experiments twice")
	}
	outputs := make([]string, 0, 2)
	for _, par := range []string{"1", "8"} {
		var out bytes.Buffer
		if err := run([]string{"-parallel", par, "-quiet"}, &out, io.Discard); err != nil {
			t.Fatalf("-parallel %s: %v", par, err)
		}
		outputs = append(outputs, out.String())
	}
	if outputs[0] != outputs[1] {
		t.Fatalf("stdout differs between -parallel 1 and -parallel 8:\n--- parallel 1 ---\n%s\n--- parallel 8 ---\n%s",
			outputs[0], outputs[1])
	}
	if !strings.Contains(outputs[0], "Table II") {
		t.Fatalf("unexpected output:\n%s", outputs[0])
	}
}

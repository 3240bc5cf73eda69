package main

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

func TestProfileRun(t *testing.T) {
	if err := run([]string{"-app", "grp", "-nodes", "2", "-variant", "initial",
		"-top", "3", "-affinity", "-timeline"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

// TestProfileNamesRegions: the profile names the program objects behind its
// addresses — kmn's mappings by their Mmap labels — in the region section
// and on every contended page.
func TestProfileNamesRegions(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-app", "kmn", "-nodes", "4"}, &out); err != nil {
		t.Fatal(err)
	}
	_, rest, _ := strings.Cut(out.String(), "--- top program objects (regions) ---\n")
	regions, rest, _ := strings.Cut(rest, "\n\n")
	for _, want := range []string{"barrier", "global-accum", "points", "centers"} {
		if !strings.Contains(regions, "  "+want+" ") {
			t.Errorf("region %q missing from:\n%s", want, regions)
		}
	}
	_, rest, _ = strings.Cut(rest, "--- most contended pages ---\n")
	pages, _, _ := strings.Cut(rest, "\n\n")
	if regions == "" || pages == "" || strings.Contains(regions+pages, " ? ") {
		t.Errorf("unnamed addresses in:\n%s\n\n%s", regions, pages)
	}
}

func TestProfileErrors(t *testing.T) {
	if err := run([]string{"-app", "nope"}, io.Discard); err == nil {
		t.Fatal("unknown app accepted")
	}
	if err := run([]string{"-app", "grp", "-variant", "bogus"}, io.Discard); err == nil {
		t.Fatal("unknown variant accepted")
	}
	// The cluster flags are checked like dexrun's: -nodes 65 and -1 used to
	// panic, -nodes 0 silently profiled one node.
	for _, bad := range [][]string{
		{"-app", "kmn", "-nodes", "0"},
		{"-app", "kmn", "-nodes", "-1"},
		{"-app", "kmn", "-nodes", "65"},
		{"-app", "kmn", "-size", "bogus"},
	} {
		err := run(bad, io.Discard)
		if err == nil {
			t.Fatalf("bad flags accepted: %v", bad)
		}
		if msg := err.Error(); strings.Contains(msg, "\n") || strings.Contains(msg, "goroutine") {
			t.Fatalf("%v: error %q is not one line", bad, msg)
		}
	}
}

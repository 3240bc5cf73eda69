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
}

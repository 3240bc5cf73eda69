package cli

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"dex"
	"dex/internal/apps"
)

// everyFlag registers all ten cluster flags, the way dexrun does.
func everyFlag() (*Cluster, *flag.FlagSet) {
	fs := flag.NewFlagSet("tool", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	c := &Cluster{Nodes: 2, Threads: 8, Seed: 1, Size: "test", Variant: "optimized", Protocol: "wi"}
	help := map[string]string{}
	for _, name := range []string{"nodes", "threads", "seed", "size", "variant", "protocol", "chaos", "restart", "trace", "metrics"} {
		help[name] = name + " help"
	}
	c.Register(fs, help)
	return c, fs
}

func TestResolveRejectsBadValues(t *testing.T) {
	dir := t.TempDir()
	write := func(name, plan string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(plan), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	originCrash := write("origin.json", `{"crashes":[{"node":0,"at":"1ms"}]}`)
	ep, _ := apps.ByName("ep")
	oneLine := regexp.MustCompile(`^-[a-z]+( \S+)?: [^\n]+$`)
	for _, tc := range []struct {
		args []string
		want string // a fragment of the reason
	}{
		{[]string{"-nodes", "0"}, "-nodes 0: cluster needs at least 1 node"},
		{[]string{"-nodes", "-1"}, "-nodes -1: cluster needs at least 1 node"},
		{[]string{"-nodes", "65"}, "-nodes 65: cluster has at most 64 nodes"},
		{[]string{"-threads", "0"}, "-threads 0: need at least 1 thread per node"},
		{[]string{"-size", "huge"}, "-size huge: "},
		{[]string{"-variant", "fast"}, "-variant fast: "},
		{[]string{"-protocol", "mesi"}, "-protocol mesi: "},
		{[]string{"-restart"}, "-restart: ep does not support checkpoint/restart (supported: kmn)"},
		{[]string{"-chaos", filepath.Join(dir, "missing.json")}, "missing.json: no such file or directory"},
		{[]string{"-chaos", filepath.Join(dir, "no\nsuch.json")}, `no\nsuch.json": no such file or directory`},
		{[]string{"-chaos", write("range.json", `{"crashes":[{"node":9,"at":"1ms"}]}`)}, "out of range"},
		{[]string{"-nodes", "3", "-chaos", originCrash}, "origin crashes are not survivable"},
	} {
		c, fs := everyFlag()
		if err := fs.Parse(tc.args); err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		_, err := c.Resolve(&ep)
		if err == nil {
			t.Errorf("%v: accepted", tc.args)
			continue
		}
		if msg := err.Error(); !oneLine.MatchString(msg) || !strings.Contains(msg, tc.want) {
			t.Errorf("%v: error %q, want one line \"-flag value: reason\" containing %q", tc.args, msg, tc.want)
		}
	}
}

func TestResolveBuildsTheRun(t *testing.T) {
	kmn, _ := apps.ByName("kmn")
	c, fs := everyFlag()
	if err := fs.Parse([]string{"-nodes", "64", "-threads", "2", "-seed", "7", "-size", "full",
		"-variant", "initial", "-protocol", "dist", "-restart", "-metrics"}); err != nil {
		t.Fatal(err)
	}
	run, err := c.Resolve(&kmn)
	if err != nil {
		t.Fatal(err)
	}
	if run.Nodes != 64 || run.ThreadsPerNode != 2 || run.Seed != 7 || run.Size != apps.SizeFull ||
		run.Variant != apps.Initial || !run.Restart || run.Protocol != dex.DistributedManager {
		t.Errorf("config = %+v, protocol %v", run.Config, run.Protocol)
	}
	if run.Rec == nil || len(run.Opts) != 2 {
		t.Errorf("-protocol dist -metrics gave %d options and recorder %v; want the protocol and a recorder", len(run.Opts), run.Rec)
	}

	// A tool that takes fewer flags: what it did not register keeps its value,
	// the default protocol adds no option, no recorder is made.
	fs = flag.NewFlagSet("tool", flag.ContinueOnError)
	c = &Cluster{Nodes: 4, Seed: 1, Size: "test", Variant: "initial"}
	c.Register(fs, map[string]string{"nodes": "n", "seed": "s", "size": "z", "variant": "v"})
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if run, err = c.Resolve(&kmn); err != nil || run.Rec != nil || len(run.Opts) != 0 || run.ThreadsPerNode != 0 {
		t.Errorf("four-flag tool: run %+v, err %v", run, err)
	}
}

func TestRegisterRejectsUnknownFlag(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Register accepted a flag that is not a cluster flag")
		}
	}()
	new(Cluster).Register(flag.NewFlagSet("tool", flag.ContinueOnError), map[string]string{"cores": "gone"})
}

// FuzzResolve feeds arbitrary command lines (arguments separated by NUL) to a
// tool that takes every cluster flag. Whatever parses, Resolve answers with a
// run or with one line that starts "-flag value: " — never a panic, never a
// second line. -chaos names a file; here its value is what the file holds, so
// the fuzzer reaches the plan parser without reading paths it made up, unless
// it starts with @: then the rest names a file, with any slash replaced, in a
// directory that does not exist, so the path is raw and reading it fails. The
// checked-in corpus holds the tools' own command lines and one of each error.
func FuzzResolve(f *testing.F) {
	oneLine := regexp.MustCompile(`^(-(nodes|threads) -?\d+|-(size|variant|protocol|chaos) \S.*|-restart): [^\n]*$`)
	dir := f.TempDir()
	ep, _ := apps.ByName("ep")
	kmn, _ := apps.ByName("kmn")
	f.Fuzz(func(t *testing.T, line string) {
		c, fs := everyFlag()
		if fs.Parse(strings.Split(line, "\x00")) != nil {
			return // the flag package's own error
		}
		if raw, ok := strings.CutPrefix(c.Chaos, "@"); ok {
			c.Chaos = dir + "/missing/" + strings.ReplaceAll(raw, "/", "_")
		} else if c.Chaos != "" {
			path := filepath.Join(dir, "plan.json")
			if err := os.WriteFile(path, []byte(c.Chaos), 0o644); err != nil {
				t.Fatal(err)
			}
			c.Chaos = path
		}
		for _, app := range []*apps.App{&ep, &kmn} {
			if _, err := c.Resolve(app); err != nil && !oneLine.MatchString(err.Error()) {
				t.Fatalf("%q: error %q, want one line \"-flag value: reason\"", line, err)
			}
		}
	})
}

package apps

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"dex/internal/textgen"
)

// derivations lists, for every application that keeps a derivation, a
// function returning everything a run derives from (size, seed): what the
// memo keeps and what the run regenerates beside it.
var derivations = map[string]func(cfg Config) any{
	"kmn": func(cfg Config) any { p, next, ref := kmnInput(cfg); return []any{kmnStreamHash(p, next), ref} },
	"bp":  func(cfg Config) any { return bpInputOf(cfg) },
	"bfs": func(cfg Config) any { return bfsInputOf(cfg) },
	"grp": func(cfg Config) any { text, want := grpInput(cfg); return []any{text, want} },
	"ep":  func(cfg Config) any { return epReference(cfg) },
}

// underived are the applications whose runs derive nothing worth keeping:
// bt has no generated input, ft and blk generate theirs in under 1 % of a
// full-size sweep and check no sequential reference of it.
var underived = map[string]bool{"bt": true, "ft": true, "blk": true}

// kmnStreamHash is the FNV-1a hash of the coordinates next draws for the
// points of p: the points a run writes, pinned without holding them.
func kmnStreamHash(p kmnParams, next func() float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for i := 0; i < p.points*kmnDims; i++ {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(next()))
		h.Write(b[:])
	}
	return h.Sum64()
}

func (d *derived[T]) reset() {
	d.mu.Lock()
	d.cur = nil
	d.mu.Unlock()
}

// resetInputs empties every memo, as in a fresh process.
func resetInputs() {
	kmnRefs.reset()
	bpInputs.reset()
	bfsInputs.reset()
	grpCounts.reset()
	epRefs.reset()
}

func TestDerivedBuildsOncePerKey(t *testing.T) {
	type key struct {
		size Size
		seed int64
	}
	var d derived[key]
	var mu sync.Mutex
	built := map[key]int{}
	get := func(size Size, seed int64) {
		k := key{size, seed}
		got := d.get(Config{Size: size, Seed: seed}, func() key {
			mu.Lock()
			built[k]++
			mu.Unlock()
			return k
		})
		if got != k {
			t.Errorf("get(%v) = %v", k, got)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			get(SizeTest, 3)
		}()
	}
	wg.Wait()
	get(SizeFull, 3)
	get(SizeFull, 4)
	get(SizeFull, 4)
	get(SizeTest, 3) // its own entry beside full's: still there
	get(SizeFull, 3) // replaced by seed 4: builds again
	want := map[key]int{{SizeTest, 3}: 1, {SizeFull, 3}: 2, {SizeFull, 4}: 1}
	if !reflect.DeepEqual(built, want) {
		t.Fatalf("builds per key %v, want %v", built, want)
	}
}

// TestDerivedInputsPure: what a run derives is a function of size and seed
// alone — equal across variant, node count and threads per node, built once
// for all of them — and differs when the seed or the size does.
func TestDerivedInputsPure(t *testing.T) {
	for _, app := range All() {
		derive, ok := derivations[app.Name]
		if !ok {
			if !underived[app.Name] {
				t.Errorf("%s: neither in derivations nor in underived", app.Name)
			}
			continue
		}
		t.Run(app.Name, func(t *testing.T) {
			resetInputs()
			start := inputBuilds.Load()
			base := derive(Config{Seed: 1}.withDefaults())
			for _, variant := range []Variant{Initial, Optimized} {
				for _, nodes := range []int{1, 2, 4, 8} {
					for _, tpn := range []int{0, 2, 5} {
						cfg := Config{Variant: variant, Nodes: nodes, ThreadsPerNode: tpn}.withDefaults()
						if !reflect.DeepEqual(base, derive(cfg)) {
							t.Fatalf("derivation differs at %v/%d nodes/%d threads per node", variant, nodes, tpn)
						}
					}
				}
			}
			if n := inputBuilds.Load() - start; n != 1 {
				t.Fatalf("%d builds for one (size, seed), want 1", n)
			}
			if reflect.DeepEqual(base, derive(Config{Seed: 2}.withDefaults())) {
				t.Fatal("seed 2 derived what seed 1 did")
			}
			if n := inputBuilds.Load() - start; n != 2 {
				t.Fatalf("%d builds after a second seed, want 2", n)
			}
			if testing.Short() {
				return
			}
			if reflect.DeepEqual(base, derive(Config{Size: SizeFull}.withDefaults())) {
				t.Fatal("full size derived what test size did")
			}
			if n := inputBuilds.Load() - start; n != 3 {
				t.Fatalf("%d builds after a second size, want 3", n)
			}
		})
	}
	resetInputs() // drop the full-size entries
}

// TestDerivedInputsAcrossSeeds: an entry replaced by another seed and built
// again gives the run the result it has in a fresh process.
func TestDerivedInputsAcrossSeeds(t *testing.T) {
	for name := range derivations {
		app, _ := ByName(name)
		t.Run(name, func(t *testing.T) {
			run := func(seed int64) Result {
				t.Helper()
				res, err := app.Run(Config{Nodes: 2, Seed: seed})
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				return res
			}
			resetInputs()
			fresh := run(1)
			resetInputs()
			start := inputBuilds.Load()
			run(1)
			run(2)
			third := run(1)
			if n := inputBuilds.Load() - start; n != 3 {
				t.Fatalf("%d builds over seeds 1, 2, 1; want 3", n)
			}
			if !reflect.DeepEqual(fresh, third) {
				t.Fatalf("third run differs from a fresh one:\nfresh: %+v\nthird: %+v", fresh, third)
			}
			if again := run(1); !reflect.DeepEqual(fresh, again) || inputBuilds.Load()-start != 3 {
				t.Fatalf("a run sharing the entry differs from a fresh one, or built again")
			}
		})
	}
}

// TestRunChecksSharedReference: every run compares its output with the
// kept reference. Each case spoils one value of the reference and expects
// the run to fail with the application's own divergence error.
func TestRunChecksSharedReference(t *testing.T) {
	cfg := Config{Nodes: 2}.withDefaults()
	key := textgen.DefaultKeys()[0]
	cases := []struct {
		app   string
		spoil func() (prefix, suffix string)
	}{
		{"kmn", func() (string, string) {
			_, _, ref := kmnInput(cfg)
			ref[0]++
			return "kmn: center component 0 = ", fmt.Sprintf(", want %g", ref[0])
		}},
		{"bp", func() (string, string) {
			in := bpInputOf(cfg)
			in.want[0]++
			return "bp: belief[0] = ", fmt.Sprintf(", want %g", in.want[0])
		}},
		{"bfs", func() (string, string) {
			in := bfsInputOf(cfg)
			was := in.want[0]
			in.want[0] = 99
			return fmt.Sprintf("bfs: level[0] = %d, want 99", was), ""
		}},
		{"grp", func() (string, string) {
			_, want := grpInput(cfg)
			want[key]++
			return fmt.Sprintf("grp: key %q counted %d, want %d", key, want[key]-1, want[key]), ""
		}},
		{"ep", func() (string, string) {
			ref := epReference(cfg)
			epRefs.cur[cfg.Size].val.accepted++
			return fmt.Sprintf("ep: tallies diverge: got %v/%d want %v/%d", ref.bins, ref.accepted, ref.bins, ref.accepted+1), ""
		}},
	}
	if len(cases) != len(derivations) {
		t.Fatalf("%d cases for %d derivations", len(cases), len(derivations))
	}
	for _, c := range cases {
		t.Run(c.app, func(t *testing.T) {
			resetInputs()
			defer resetInputs()
			prefix, suffix := c.spoil()
			app, _ := ByName(c.app)
			_, err := app.Run(cfg)
			if err == nil {
				t.Fatal("run passed against a spoiled reference")
			}
			if msg := err.Error(); !strings.HasPrefix(msg, prefix) || !strings.HasSuffix(msg, suffix) {
				t.Fatalf("error %q, want %q…%q", msg, prefix, suffix)
			}
		})
	}
}

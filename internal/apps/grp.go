package apps

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"dex"
	"dex/internal/textgen"
)

// grpParams sizes the string-match workload (the paper used 8 GB of
// Wikipedia text and four 7–10 byte keys; we scale down per the
// substitution rule, keeping the access pattern).
type grpParams struct {
	corpusBytes int
	perMille    int // key plant rate per 1000 words
	chunk       int // scan chunk size
	scanCost    time.Duration
}

func grpSizes(s Size) grpParams {
	switch s {
	case SizeFull:
		return grpParams{corpusBytes: 48 << 20, perMille: 10, chunk: 64 << 10, scanCost: 6 * time.Nanosecond}
	default:
		return grpParams{corpusBytes: 256 << 10, perMille: 4, chunk: 16 << 10, scanCost: 3 * time.Nanosecond}
	}
}

// countStarting counts key occurrences whose start offset is < limit.
func countStarting(buf []byte, key []byte, limit int) int {
	n, off := 0, 0
	for {
		i := bytes.Index(buf[off:], key)
		if i < 0 || off+i >= limit {
			return n
		}
		n++
		off += i + 1
	}
}

// grpCounts keeps the reference occurrence counts of the latest (size,
// seed); see inputs.go.
var grpCounts derived[map[string]int]

// grpInput generates the corpus of a run and returns it with the reference
// count of every key in it. Like kmn's points the corpus (48 MB at full
// size) is rebuilt by every run; the counts come from the first run's.
func grpInput(cfg Config) (text []byte, want map[string]int) {
	p := grpSizes(cfg.Size)
	keys := textgen.DefaultKeys()
	text, _ = textgen.Corpus(cfg.Seed, p.corpusBytes, keys, p.perMille)
	want = grpCounts.get(cfg, func() map[string]int { return textgen.CountOccurrences(text, keys) })
	return text, want
}

// RunGRP runs the string-match application (GRP). Worker threads count key
// occurrences in disjoint partitions of a shared corpus.
//
// Initial pathologies (§V-C): thread bounds and a progress counter live on
// one shared "args" page that the main thread keeps writing (heartbeat on
// its stack), bounds are re-read from that page every chunk, and every key
// hit updates the global counters page directly. Optimized: bounds live in
// thread-local state, hits are staged locally and merged once, and the
// main thread's bookkeeping is on its own page.
func RunGRP(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	p := grpSizes(cfg.Size)
	keys := textgen.DefaultKeys()
	maxKeyLen := 0
	for _, k := range keys {
		if len(k) > maxKeyLen {
			maxKeyLen = len(k)
		}
	}
	text, want := grpInput(cfg)

	cluster := cfg.cluster()
	got := make(map[string]int, len(keys))
	var roiStart, roiEnd time.Duration
	report, err := cluster.Run(func(main *dex.Thread) error {
		threads := cfg.threads()
		main.SetSite("grp/setup")
		corpus, err := main.Mmap(uint64(len(text)), dex.ProtRead|dex.ProtWrite, "corpus")
		if err != nil {
			return err
		}
		if err := main.Write(corpus, text); err != nil {
			return err
		}
		// Global per-key occurrence counters (one page).
		globals, err := main.Mmap(dex.PageSize, dex.ProtRead|dex.ProtWrite, "global-counts")
		if err != nil {
			return err
		}
		// Initial: bounds + progress + main's scratch share one page.
		args, err := main.Mmap(dex.PageSize, dex.ProtRead|dex.ProtWrite, "thread-args")
		if err != nil {
			return err
		}
		doneCtr := args          // progress counter (shared page)
		heartbeat := args + 2048 // main's "stack" scratch, same page
		if cfg.Variant == Optimized {
			// Page-aligned private pages for bookkeeping.
			opt, err := main.Mmap(2*dex.PageSize, dex.ProtRead|dex.ProtWrite, "aligned-ctl")
			if err != nil {
				return err
			}
			doneCtr = opt
			heartbeat = opt + dex.PageSize
		}
		boundsAt := func(id int) dex.Addr { return args + 32 + 16*dex.Addr(id) }
		for id := 0; id < threads; id++ {
			lo, hi := partition(len(text), threads, id)
			if err := main.WriteUint64(boundsAt(id), uint64(lo)); err != nil {
				return err
			}
			if err := main.WriteUint64(boundsAt(id)+8, uint64(hi)); err != nil {
				return err
			}
		}

		body := func(w *dex.Thread, id int) error {
			w.SetSite("grp/bounds")
			lo64, err := w.ReadUint64(boundsAt(id))
			if err != nil {
				return err
			}
			hi64, err := w.ReadUint64(boundsAt(id) + 8)
			if err != nil {
				return err
			}
			lo, hi := int(lo64), int(hi64)
			local := make([]uint64, len(keys))
			// The original program checks and bumps the global counters as
			// it scans; the Initial variant models that by scanning in fine
			// sub-chunks with a counter merge after each, while Optimized
			// scans in large chunks and stages counts locally (§V-C).
			chunk := p.chunk
			if cfg.Variant != Optimized {
				chunk = 4096
			}
			buf := make([]byte, chunk+maxKeyLen-1)
			for pos := lo; pos < hi; pos += chunk {
				if cfg.Variant != Optimized {
					// Pathology: re-read the loop bounds from the shared
					// args page every chunk (OpenMP-style shared vars).
					w.SetSite("grp/bounds")
					if hi64, err = w.ReadUint64(boundsAt(id) + 8); err != nil {
						return err
					}
					hi = int(hi64)
				}
				limit := hi - pos
				if limit > chunk {
					limit = chunk
				}
				n := limit + maxKeyLen - 1
				if pos+n > len(text) {
					n = len(text) - pos
				}
				w.SetSite("grp/scan")
				if err := w.Read(corpus+dex.Addr(pos), buf[:n]); err != nil {
					return err
				}
				w.Compute(time.Duration(limit) * p.scanCost)
				for ki, k := range keys {
					c := countStarting(buf[:n], []byte(k), limit)
					if c == 0 {
						continue
					}
					if cfg.Variant != Optimized {
						// Pathology: bump the shared global per hit.
						w.SetSite("grp/global-update")
						for j := 0; j < c; j++ {
							if _, err := w.AddUint64(globals+dex.Addr(8*ki), 1); err != nil {
								return err
							}
						}
					} else {
						local[ki] += uint64(c)
					}
				}
			}
			if cfg.Variant == Optimized {
				// Stage locally, merge once after the computation (§V-C).
				w.SetSite("grp/merge")
				for ki, c := range local {
					if c == 0 {
						continue
					}
					if _, err := w.AddUint64(globals+dex.Addr(8*ki), c); err != nil {
						return err
					}
				}
			}
			w.SetSite("grp/done")
			_, err = w.AddUint64(doneCtr, 1)
			return err
		}

		roiStart = main.Now()
		// Spawn workers without blocking so the main thread can run its
		// progress loop (whose writes land on the shared args page in the
		// Initial variant — the parent-stack pathology).
		ws, err := spawnWorkers(main, cfg, body)
		if err != nil {
			return err
		}
		main.SetSite("grp/progress")
		tick := uint64(0)
		for {
			done, err := main.ReadUint64(doneCtr)
			if err != nil {
				return err
			}
			if int(done) >= threads {
				break
			}
			tick++
			if err := main.WriteUint64(heartbeat, tick); err != nil {
				return err
			}
			main.Compute(300 * time.Microsecond)
		}
		if err := joinWorkers(main, ws); err != nil {
			return err
		}
		roiEnd = main.Now()
		for ki, k := range keys {
			v, err := main.ReadUint64(globals + dex.Addr(8*ki))
			if err != nil {
				return err
			}
			got[k] = int(v)
		}
		return nil
	})
	if err != nil {
		return Result{}, err
	}
	for _, k := range keys {
		if got[k] != want[k] {
			return Result{}, fmt.Errorf("grp: key %q counted %d, want %d", k, got[k], want[k])
		}
	}
	var parts []string
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%d", k, got[k]))
	}
	sort.Strings(parts)
	return cfg.result("grp", roiEnd-roiStart, report, fmt.Sprint(parts)), nil
}

package workloads

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"

	"dex"
)

const (
	readsNodes          = 8
	readsThreadsPerNode = 8
	readsPages          = 2048
	readsRounds         = 6
	// readsEventLimit is ≈10× the events of the heaviest run (dist, ≈1.4 M).
	readsEventLimit = 15_000_000
)

// newReads is the read-sharing workload: a DeX program on the public dex
// API only. The origin fills a table of pages; then, round after round,
// every thread of every node reads every page and checks its stamp, and
// one writer on a rotating node restamps a seeded eighth of the pages,
// which invalidates seven replicas per write. It runs once under each
// coherence policy.
func newReads(cfg Config) *Workload {
	pages := readsPages
	if cfg.Quick {
		pages /= 8
	}
	w := &Workload{Name: "reads"}
	w.Iterate = func(parent int, traced bool) Iteration {
		var it Iteration
		for _, pol := range policies {
			opts, rec := runOpts(readsEventLimit, traced, dex.WithSeed(cfg.Seed), dex.WithProtocol(pol.proto))
			sp := cfg.Log.Begin(parent, "Cluster.Run reads/"+pol.short)
			rep, check, err := readShare(cfg.Seed, readsNodes, readsThreadsPerNode, pages, readsRounds, pages/8, opts...)
			cfg.Log.End(sp)
			it.Runs = append(it.Runs, Run{Label: pol.short, Elapsed: rep.Elapsed, Check: check, Err: err, Dex: &rep, Rec: rec})
		}
		return it
	}
	return w
}

// stamp is the value page p holds after its v-th restamp.
func stamp(seed int64, p, v int) uint64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(p)*0xbf58476d1ce4e5b9 + uint64(v)*0x94d049bb133111eb
	x ^= x >> 31
	return x | 1 // never zero, so an unfilled page cannot pass the check
}

// readShare runs the read-share program: nodes×threadsPerNode threads,
// a table of pages, rounds of { all read and check all; barrier; one
// writer restamps `restamps` seeded pages; barrier }. Every read is
// compared with the stamp the page must hold in that round, so the run is
// a sequential-consistency check of the coherence policy as well as a
// load. It returns the cluster report and a digest of the verified-read
// count and the final table.
func readShare(seed int64, nodes, threadsPerNode, pages, rounds, restamps int, opts ...dex.Option) (dex.Report, string, error) {
	threads := nodes * threadsPerNode
	// version[r][p] is how often page p was restamped before round r's
	// reads; victims[r] are the pages round r's writer restamps. Both are
	// fixed before the run, so threads share no mutable Go state.
	rng := rand.New(rand.NewSource(seed))
	version := make([][]int, rounds+1)
	victims := make([][]int, rounds)
	version[0] = make([]int, pages)
	for r := 0; r < rounds; r++ {
		victims[r] = rng.Perm(pages)[:restamps]
		version[r+1] = append([]int(nil), version[r]...)
		for _, p := range victims[r] {
			version[r+1][p]++
		}
	}

	verified := make([]int, threads)
	var final uint64
	cluster := dex.NewCluster(nodes, opts...)
	report, err := cluster.Run(func(main *dex.Thread) error {
		table, err := main.Mmap(uint64(pages)*dex.PageSize, dex.ProtRead|dex.ProtWrite, "reads.table")
		if err != nil {
			return err
		}
		page := func(p int) dex.Addr { return table + dex.Addr(p)*dex.PageSize }
		for p := 0; p < pages; p++ {
			if err := main.WriteUint64(page(p), stamp(seed, p, 0)); err != nil {
				return err
			}
		}
		bar, err := dex.NewBarrier(main, threads)
		if err != nil {
			return err
		}
		ws := make([]*dex.Thread, threads)
		for id := range ws {
			id := id
			node := id / threadsPerNode
			ws[id], err = main.Spawn(func(t *dex.Thread) error {
				if err := t.Migrate(node); err != nil {
					return err
				}
				for r := 0; r < rounds; r++ {
					for p := 0; p < pages; p++ {
						got, err := t.ReadUint64(page(p))
						if err != nil {
							return err
						}
						if want := stamp(seed, p, version[r][p]); got != want {
							return fmt.Errorf("reads: thread %d round %d page %d holds %#x, want %#x", id, r, p, got, want)
						}
						verified[id]++
					}
					if err := bar.Wait(t); err != nil {
						return err
					}
					// The writer is the first thread of a node that
					// rotates with the round.
					if id == (r+1)%nodes*threadsPerNode {
						for _, p := range victims[r] {
							if err := t.WriteUint64(page(p), stamp(seed, p, version[r+1][p])); err != nil {
								return err
							}
						}
					}
					if err := bar.Wait(t); err != nil {
						return err
					}
				}
				return t.MigrateBack()
			})
			if err != nil {
				return err
			}
		}
		var firstErr error
		for _, w := range ws {
			if err := main.Join(w); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if firstErr != nil {
			return firstErr
		}
		h := fnv.New64a()
		var word [8]byte
		for p := 0; p < pages; p++ {
			v, err := main.ReadUint64(page(p))
			if err != nil {
				return err
			}
			binary.LittleEndian.PutUint64(word[:], v)
			h.Write(word[:])
		}
		final = h.Sum64()
		return nil
	})
	if err != nil {
		return report, "", err
	}
	total := 0
	for _, n := range verified {
		total += n
	}
	if want := threads * pages * rounds; total != want {
		return report, "", fmt.Errorf("reads: verified %d stamps, want %d", total, want)
	}
	return report, fmt.Sprintf("stamps=%d table=%016x", total, final), nil
}

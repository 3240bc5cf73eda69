// Relocating computation near its data — the paper's closing scenario.
//
// Producer threads pinned to each node keep regenerating per-node datasets;
// consumer threads, initially placed on the wrong nodes, pull every round's
// data across the fabric. Phase one runs under the page-fault profiler; the
// affinity analysis then recommends where each consumer belongs, and phase
// two lets the consumers migrate themselves accordingly. Cross-node read
// faults collapse and the round time drops.
//
//	go run ./examples/affinity
package main

import (
	"fmt"
	"log"
	"time"

	"dex"
)

const (
	nodes     = 4
	pagesEach = 24
	rounds    = 6
)

// phase runs producers and consumers for `rounds` rounds, observed by rec
// (nil: unobserved). placement maps consumer i to its node; the returned
// duration covers the steady rounds.
func phase(rec *dex.Recorder, placement [nodes]int) (time.Duration, dex.Report, error) {
	cluster := dex.NewCluster(nodes, dex.WithSeed(7), dex.WithObserver(rec))
	var span time.Duration
	report, err := cluster.Run(func(t *dex.Thread) error {
		// One data region per node, page aligned.
		regionBytes := uint64(pagesEach * dex.PageSize)
		regions := make([]dex.Addr, nodes)
		for i := range regions {
			a, err := t.Mmap(regionBytes, dex.ProtRead|dex.ProtWrite, fmt.Sprintf("dataset-%d", i))
			if err != nil {
				return err
			}
			regions[i] = a
		}
		bar, err := dex.NewBarrier(t, 2*nodes)
		if err != nil {
			return err
		}
		var ws []*dex.Thread
		// Producers: one per node, regenerating that node's dataset.
		for n := 0; n < nodes; n++ {
			w, err := t.Spawn(func(w *dex.Thread) error {
				if err := w.Migrate(n); err != nil {
					return err
				}
				w.SetSite("producer/write")
				buf := make([]byte, pagesEach*dex.PageSize)
				for r := 0; r < rounds; r++ {
					for i := range buf {
						buf[i] = byte(r + n + i)
					}
					if err := w.Write(regions[n], buf); err != nil {
						return err
					}
					w.Compute(100 * time.Microsecond)
					if err := bar.Wait(w); err != nil {
						return err
					}
					if err := bar.Wait(w); err != nil {
						return err
					}
				}
				return w.MigrateBack()
			})
			if err != nil {
				return err
			}
			ws = append(ws, w)
		}
		// Consumers: consumer i processes dataset i but starts on
		// placement[i].
		var startAt, endAt time.Duration
		for c := 0; c < nodes; c++ {
			w, err := t.Spawn(func(w *dex.Thread) error {
				if err := w.Migrate(placement[c]); err != nil {
					return err
				}
				w.SetSite("consumer/read")
				buf := make([]byte, pagesEach*dex.PageSize)
				for r := 0; r < rounds; r++ {
					if err := bar.Wait(w); err != nil { // producer finished
						return err
					}
					if c == 0 && r == 1 {
						startAt = w.Now() // skip the cold first round
					}
					if err := w.Read(regions[c], buf); err != nil {
						return err
					}
					sum := 0
					for _, b := range buf {
						sum += int(b)
					}
					_ = sum
					w.Compute(150 * time.Microsecond)
					if err := bar.Wait(w); err != nil {
						return err
					}
					if c == 0 && r == rounds-1 {
						endAt = w.Now()
					}
				}
				return w.MigrateBack()
			})
			if err != nil {
				return err
			}
			ws = append(ws, w)
		}
		for _, w := range ws {
			if err := t.Join(w); err != nil {
				return err
			}
		}
		span = endAt - startAt
		return nil
	})
	return span, report, err
}

func main() {
	// Phase 1: consumers deliberately misplaced (rotated by one node).
	var misplaced [nodes]int
	for i := range misplaced {
		misplaced[i] = (i + 1) % nodes
	}
	rec := dex.NewFaultRecorder()
	before, repBefore, err := phase(rec, misplaced)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("misplaced consumers: %v per run, %d read faults\n", before, repBefore.DSM.ReadFaults)

	// The affinity analysis reads the trace and recommends placements.
	suggestions := dex.ProfileOf(rec).AffinitySuggestions(4)
	fmt.Println("affinity suggestions (move thread to its data's producer):")
	var fixed [nodes]int
	copy(fixed[:], misplaced[:])
	for _, s := range suggestions {
		fmt.Printf("  thread %d: node %d -> node %d (%d/%d remote reads, %.0f%% local after move)\n",
			s.Task, s.From, s.To, s.ReadFaults, s.Total, 100*s.Score())
		// Producers are threads 1..nodes; consumers are nodes+1..2*nodes.
		if c := s.Task - nodes - 1; c >= 0 && c < nodes {
			fixed[c] = s.To
		}
	}

	// Phase 2: apply the suggestions.
	after, repAfter, err := phase(nil, fixed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("affinity-placed consumers: %v per run, %d read faults\n", after, repAfter.DSM.ReadFaults)
	fmt.Printf("speedup from relocating computation near its data: %.2fx\n",
		float64(before)/float64(after))
}

package apps

import (
	"encoding/binary"
	"math"
	"time"

	"dex"
)

// runKMNRestart is the checkpoint/restart-capable k-means used by the
// survival experiments: the Optimized data layout, but coordinated through a
// PhasedBarrier instead of the counting Barrier so every synchronization
// step is safe to replay, and with each worker checkpointing at the top of
// every iteration. A worker whose node is declared dead is re-spawned at
// the origin from its latest checkpoint; because each iteration's inputs
// (the centers) cannot advance past the worker's own unconsumed
// publication, the replay recomputes and republishes byte-identical
// partial sums and the run converges to the same answer as a clean one.
// RunKMN takes this path only when cluster injects faults: without a plan
// nothing is restarted, and the run is the ordinary one.
func runKMNRestart(cfg Config, cluster *dex.Cluster, p kmnParams, next func() float64, ref []float64) (Result, error) {
	var finalCenters []float64
	var roiStart, roiEnd time.Duration
	report, err := cluster.Run(func(main *dex.Thread) error {
		threads := cfg.threads()
		accLen := p.k * (kmnDims + 1)
		points, centers, err := kmnSetup(main, next, p)
		if err != nil {
			return err
		}
		// Per-worker slot pages. Offset 0 holds a 4-byte iteration tag that
		// validates the 8-aligned accumulators behind it: a slot page lost
		// with its node reads back zero-tagged (or tagged with the previous
		// iteration if restored from a checkpoint) until the worker's
		// publication for the current iteration actually lands.
		slots, err := main.Mmap(uint64(threads)*dex.PageSize, dex.ProtRead|dex.ProtWrite, "thread-partials")
		if err != nil {
			return err
		}
		bar, err := dex.NewPhasedBarrier(main, threads)
		if err != nil {
			return err
		}

		body := func(w *dex.Thread, id, startIter int) error {
			lo, hi := partition(p.points, threads, id)
			slot := slots + dex.Addr(id)*dex.PageSize
			kw := newKMNWorker(p, lo, hi)
			for iter := startIter; iter < p.iters; iter++ {
				var reg [4]byte
				binary.LittleEndian.PutUint32(reg[:], uint32(iter))
				if err := w.Checkpoint(reg[:]); err != nil {
					return err
				}
				if err := kw.readCenters(w, centers); err != nil {
					return err
				}
				acc := make([]float64, accLen)
				for pos := lo; pos < hi; pos += p.chunk {
					n := p.chunk
					if pos+n > hi {
						n = hi - pos
					}
					if err := kw.read(w, points, pos, n); err != nil {
						return err
					}
					w.Compute(time.Duration(n) * p.pointCost)
					kw.assign(acc, 0, n)
				}
				// Publish the tag and the accumulators in one single-page
				// write: either the whole publication lands or none of it
				// does, so the main thread can never see fresh data behind a
				// stale tag or vice versa.
				w.SetSite("kmn/publish")
				if err := writeWords(w, slot, 1+accLen, 8, func(i int) uint64 {
					if i == 0 {
						return uint64(iter + 1) // the 4-byte tag, then 4 zero bytes
					}
					return math.Float64bits(acc[i-1])
				}); err != nil {
					return err
				}
				if err := bar.Arrive(w, id, iter); err != nil {
					return err
				}
			}
			return nil
		}

		roiStart = main.Now()
		ws := make([]*dex.Thread, 0, threads)
		for i := 0; i < threads; i++ {
			id := i
			node := nodeOf(id, threads, cfg.Nodes)
			w, err := main.SpawnRestartable(func(t *dex.Thread, blob []byte) error {
				start := 0
				if len(blob) >= 4 {
					start = int(binary.LittleEndian.Uint32(blob))
				}
				// Migration is best effort here: after a restart the
				// preferred node is dead and the worker computes on at the
				// origin instead — slower, but alive.
				_ = t.Migrate(node)
				if err := body(t, id, start); err != nil {
					return err
				}
				_ = t.MigrateBack()
				return nil
			})
			if err != nil {
				return err
			}
			ws = append(ws, w)
		}

		for iter := 0; iter < p.iters; iter++ {
			total := make([]float64, accLen)
			for id := 0; id < threads; id++ {
				if err := bar.Collect(main, id, iter); err != nil {
					return err
				}
				slot := slots + dex.Addr(id)*dex.PageSize
				// The arrival word proves the worker reached the barrier,
				// not that its slot survived: a crash between the publish
				// and the death declaration can zero-fill the slot page.
				// Poll the tag until the (possibly restarted) worker's
				// publication for this iteration is visible.
				main.SetSite("kmn/collect")
				for {
					tag, err := main.ReadUint32(slot)
					if err != nil {
						return err
					}
					if tag == uint32(iter+1) {
						break
					}
					main.Compute(50 * time.Microsecond)
				}
				part, err := readFloat64s(main, slot+8, accLen)
				if err != nil {
					return err
				}
				for j, v := range part {
					total[j] += v
				}
			}
			main.SetSite("kmn/reduce")
			if err := kmnRecenter(main, centers, total, p.k); err != nil {
				return err
			}
			if err := bar.Release(main, iter); err != nil {
				return err
			}
		}
		var joinErr error
		for _, w := range ws {
			if err := main.Join(w); err != nil && joinErr == nil {
				joinErr = err
			}
		}
		if joinErr != nil {
			return joinErr
		}
		roiEnd = main.Now()
		finalCenters, err = readFloat64s(main, centers, p.k*kmnDims)
		return err
	})
	return kmnResult(cfg, err, finalCenters, ref, roiEnd-roiStart, report)
}

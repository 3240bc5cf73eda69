// Distributed k-means over the DeX shared address space.
//
// The example mirrors the paper's KMN conversion (§V-A): a single-machine
// k-means becomes distributed by migrating each worker to its node at the
// start of the parallel phase. Points live in shared memory and replicate
// read-only to every node; per-thread partial sums are staged locally and
// published once per iteration into page-aligned slots (the §V-C
// optimization), and a futex-backed barrier separates the phases.
//
//	go run ./examples/kmeans
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"math"
	"math/rand"

	"dex"
)

const (
	nodes   = 4
	threads = 16
	points  = 40_000
	k       = 8
	iters   = 5
)

func main() {
	rng := rand.New(rand.NewSource(42))
	data := make([]float64, points*2)
	for c := 0; c < 4; c++ { // four planted blobs
		for i := 0; i < points/4; i++ {
			idx := (c*points/4 + i) * 2
			data[idx] = float64(c%2)*40 + rng.NormFloat64()*3
			data[idx+1] = float64(c/2)*40 + rng.NormFloat64()*3
		}
	}

	cluster := dex.NewCluster(nodes)
	var centers []float64
	report, err := cluster.Run(func(t *dex.Thread) error {
		pts, err := t.Mmap(uint64(8*len(data)), dex.ProtRead|dex.ProtWrite, "points")
		if err != nil {
			return err
		}
		if err := writeFloats(t, pts, data); err != nil {
			return err
		}
		ctr, err := t.Mmap(dex.PageSize, dex.ProtRead|dex.ProtWrite, "centers")
		if err != nil {
			return err
		}
		if err := writeFloats(t, ctr, data[:2*k]); err != nil { // seed with first k points
			return err
		}
		// Page-aligned per-thread partial sums: k * (x, y, count).
		slots, err := t.Mmap(threads*dex.PageSize, dex.ProtRead|dex.ProtWrite, "partials")
		if err != nil {
			return err
		}
		bar, err := dex.NewBarrier(t, threads+1)
		if err != nil {
			return err
		}

		var ws []*dex.Thread
		for id := 0; id < threads; id++ {
			w, err := t.Spawn(func(w *dex.Thread) error {
				if err := w.Migrate(id * nodes / threads); err != nil {
					return err
				}
				lo, hi := points*id/threads, points*(id+1)/threads
				for iter := 0; iter < iters; iter++ {
					cs, err := readFloats(w, ctr, 2*k)
					if err != nil {
						return err
					}
					part, err := readFloats(w, pts+dex.Addr(16*lo), 2*(hi-lo))
					if err != nil {
						return err
					}
					acc := make([]float64, 3*k)
					for i := 0; i < hi-lo; i++ {
						x, y := part[2*i], part[2*i+1]
						best, bd := 0, math.MaxFloat64
						for c := 0; c < k; c++ {
							dx, dy := x-cs[2*c], y-cs[2*c+1]
							if d := dx*dx + dy*dy; d < bd {
								best, bd = c, d
							}
						}
						acc[3*best] += x
						acc[3*best+1] += y
						acc[3*best+2]++
					}
					// Publish once into this thread's own page (§V-C).
					if err := writeFloats(w, slots+dex.Addr(id*dex.PageSize), acc); err != nil {
						return err
					}
					if err := bar.Wait(w); err != nil {
						return err
					}
					if err := bar.Wait(w); err != nil { // centers updated
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

		for iter := 0; iter < iters; iter++ {
			if err := bar.Wait(t); err != nil {
				return err
			}
			total := make([]float64, 3*k)
			for id := 0; id < threads; id++ {
				part, err := readFloats(t, slots+dex.Addr(id*dex.PageSize), 3*k)
				if err != nil {
					return err
				}
				for j, v := range part {
					total[j] += v
				}
			}
			next := make([]float64, 2*k)
			for c := 0; c < k; c++ {
				if n := total[3*c+2]; n > 0 {
					next[2*c] = total[3*c] / n
					next[2*c+1] = total[3*c+1] / n
				}
			}
			if err := writeFloats(t, ctr, next); err != nil {
				return err
			}
			if err := bar.Wait(t); err != nil {
				return err
			}
		}
		for _, w := range ws {
			if err := t.Join(w); err != nil {
				return err
			}
		}
		centers, err = readFloats(t, ctr, 2*k)
		return err
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("final centers (four blobs at (0,0) (40,0) (0,40) (40,40)):")
	for c := 0; c < k; c++ {
		if centers[2*c] != 0 || centers[2*c+1] != 0 {
			fmt.Printf("  (%6.2f, %6.2f)\n", centers[2*c], centers[2*c+1])
		}
	}
	fmt.Printf("virtual time %v on %d nodes, %d migrations, %d page faults\n",
		report.Elapsed, nodes, report.Migrations, report.DSM.Faults())
}

func writeFloats(t *dex.Thread, addr dex.Addr, vals []float64) error {
	buf := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	return t.Write(addr, buf)
}

func readFloats(t *dex.Thread, addr dex.Addr, n int) ([]float64, error) {
	buf := make([]byte, 8*n)
	if err := t.Read(addr, buf); err != nil {
		return nil, err
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	return out, nil
}

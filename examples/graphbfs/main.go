// Distributed breadth-first search over a shared graph.
//
// A synthetic scale-free graph lives in the DeX address space; worker
// threads on different nodes own vertex ranges and run a level-synchronous
// BFS with locally staged discoveries (the Polymer-style conversion of the
// paper's §V). The result is verified against a sequential BFS.
//
//	go run ./examples/graphbfs
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"math/rand"

	"dex"
)

const (
	nodes   = 4
	threads = 8
	nVerts  = 4096
	nEdges  = 32768
)

// genGraph builds a skewed random digraph in CSR form.
func genGraph() (offsets []uint64, edges []uint32) {
	rng := rand.New(rand.NewSource(7))
	adj := make([][]uint32, nVerts)
	for i := 0; i < nEdges; i++ {
		// Preferential-attachment-flavoured endpoints.
		src := rng.Intn(nVerts)
		dst := rng.Intn(rng.Intn(nVerts) + 1)
		adj[src] = append(adj[src], uint32(dst))
	}
	offsets = make([]uint64, nVerts+1)
	for v, a := range adj {
		offsets[v+1] = offsets[v] + uint64(len(a))
		edges = append(edges, a...)
	}
	return offsets, edges
}

// seqBFS is the single-machine reference.
func seqBFS(offsets []uint64, edges []uint32, src int) []int32 {
	level := make([]int32, nVerts)
	for i := range level {
		level[i] = -1
	}
	level[src] = 0
	frontier := []int{src}
	for d := int32(1); len(frontier) > 0; d++ {
		var next []int
		for _, v := range frontier {
			for _, w := range edges[offsets[v]:offsets[v+1]] {
				if level[w] == -1 {
					level[w] = d
					next = append(next, int(w))
				}
			}
		}
		frontier = next
	}
	return level
}

func main() {
	offsets, edges := genGraph()
	src := 0
	want := seqBFS(offsets, edges, src)

	cluster := dex.NewCluster(nodes)
	got := make([]int32, nVerts)
	report, err := cluster.Run(func(t *dex.Thread) error {
		offA, err := t.Mmap(uint64(8*len(offsets)), dex.ProtRead|dex.ProtWrite, "offsets")
		if err != nil {
			return err
		}
		edgA, err := t.Mmap(uint64(4*len(edges)+8), dex.ProtRead|dex.ProtWrite, "edges")
		if err != nil {
			return err
		}
		lvlA, err := t.Mmap(uint64(4*nVerts), dex.ProtRead|dex.ProtWrite, "levels")
		if err != nil {
			return err
		}
		frontA, err := t.Mmap(nVerts, dex.ProtRead|dex.ProtWrite, "frontier-a")
		if err != nil {
			return err
		}
		frontB, err := t.Mmap(nVerts, dex.ProtRead|dex.ProtWrite, "frontier-b")
		if err != nil {
			return err
		}
		flagsA, err := t.Mmap(dex.PageSize, dex.ProtRead|dex.ProtWrite, "flags")
		if err != nil {
			return err
		}
		// Load the graph.
		obuf := make([]byte, 8*len(offsets))
		for i, v := range offsets {
			binary.LittleEndian.PutUint64(obuf[8*i:], v)
		}
		if err := t.Write(offA, obuf); err != nil {
			return err
		}
		ebuf := make([]byte, 4*len(edges))
		for i, v := range edges {
			binary.LittleEndian.PutUint32(ebuf[4*i:], v)
		}
		if err := t.Write(edgA, ebuf); err != nil {
			return err
		}
		if err := t.WriteUint32(lvlA+dex.Addr(4*src), 1); err != nil {
			return err
		}
		if err := t.Write(frontA+dex.Addr(src), []byte{1}); err != nil {
			return err
		}
		bar, err := dex.NewBarrier(t, threads)
		if err != nil {
			return err
		}

		var ws []*dex.Thread
		for id := 0; id < threads; id++ {
			w, err := t.Spawn(func(w *dex.Thread) error {
				if err := w.Migrate(id * nodes / threads); err != nil {
					return err
				}
				lo, hi := nVerts*id/threads, nVerts*(id+1)/threads
				cf, nf := frontA, frontB
				// Replicate this range's adjacency once.
				myOff := make([]uint64, hi-lo+1)
				ob := make([]byte, 8*len(myOff))
				if err := w.Read(offA+dex.Addr(8*lo), ob); err != nil {
					return err
				}
				for i := range myOff {
					myOff[i] = binary.LittleEndian.Uint64(ob[8*i:])
				}
				var myAdj []uint32
				if n := myOff[len(myOff)-1] - myOff[0]; n > 0 {
					eb := make([]byte, 4*n)
					if err := w.Read(edgA+dex.Addr(4*myOff[0]), eb); err != nil {
						return err
					}
					myAdj = make([]uint32, n)
					for i := range myAdj {
						myAdj[i] = binary.LittleEndian.Uint32(eb[4*i:])
					}
				}
				front := make([]byte, hi-lo)
				for level := uint32(1); level < 64; level++ {
					if err := w.Read(cf+dex.Addr(lo), front); err != nil {
						return err
					}
					nextLocal := make([]byte, hi-lo)
					changed := false
					for v := lo; v < hi; v++ {
						if front[v-lo] == 0 {
							continue
						}
						s, e := myOff[v-lo]-myOff[0], myOff[v-lo+1]-myOff[0]
						for _, dst := range myAdj[s:e] {
							lv, err := w.ReadUint32(lvlA + dex.Addr(4*dst))
							if err != nil {
								return err
							}
							if lv != 0 {
								continue
							}
							if err := w.WriteUint32(lvlA+dex.Addr(4*dst), level+1); err != nil {
								return err
							}
							if int(dst) >= lo && int(dst) < hi {
								nextLocal[int(dst)-lo] = 1
							} else if err := w.Write(nf+dex.Addr(dst), []byte{1}); err != nil {
								return err
							}
							changed = true
						}
					}
					// Merge local discoveries and clear our consumed slice.
					for i, b := range nextLocal {
						if b == 1 {
							if err := w.Write(nf+dex.Addr(lo+i), []byte{1}); err != nil {
								return err
							}
						}
					}
					if err := w.Write(cf+dex.Addr(lo), make([]byte, hi-lo)); err != nil {
						return err
					}
					if changed {
						if err := w.WriteUint32(flagsA+dex.Addr(4*(level-1)), 1); err != nil {
							return err
						}
					}
					if err := bar.Wait(w); err != nil {
						return err
					}
					fl, err := w.ReadUint32(flagsA + dex.Addr(4*(level-1)))
					if err != nil {
						return err
					}
					if err := bar.Wait(w); err != nil {
						return err
					}
					if fl == 0 {
						break
					}
					cf, nf = nf, cf
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
		lb := make([]byte, 4*nVerts)
		if err := t.Read(lvlA, lb); err != nil {
			return err
		}
		for v := range got {
			got[v] = int32(binary.LittleEndian.Uint32(lb[4*v:])) - 1
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	reached := 0
	for v := range want {
		if got[v] != want[v] {
			log.Fatalf("level[%d] = %d, want %d", v, got[v], want[v])
		}
		if got[v] >= 0 {
			reached++
		}
	}
	fmt.Printf("BFS over %d vertices / %d edges on %d nodes: %d reachable, all levels verified\n",
		nVerts, len(edges), nodes, reached)
	fmt.Printf("virtual time %v, %d page faults (%d coalesced followers)\n",
		report.Elapsed, report.DSM.Faults(), report.DSM.FollowerJoins)
}

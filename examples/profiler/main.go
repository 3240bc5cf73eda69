// Finding false sharing with the DeX page-fault profiler (§IV of the paper).
//
// Two versions of the same workload run under the profiler. In the first,
// every thread's hot counter is packed onto one shared page — the classic
// false-sharing pathology: the page ping-pongs between nodes and the trace
// shows one page with write traffic from every node. In the second, each
// counter sits in its own page-aligned slot, and the cross-node traffic
// disappears. This is exactly the diagnose-and-fix loop the paper's
// profiling tool supports.
//
//	go run ./examples/profiler
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"dex"
)

const (
	nodes   = 4
	threads = 8
	updates = 400
)

func run(aligned bool) (*dex.Trace, dex.Report, error) {
	rec := dex.NewRecorder()
	cluster := dex.NewCluster(nodes, dex.WithObserver(rec))
	proc := cluster.Start(func(t *dex.Thread) error {
		label := "counters-packed"
		size := uint64(dex.PageSize)
		stride := 8
		if aligned {
			label = "counters-aligned"
			size = uint64(threads * dex.PageSize)
			stride = dex.PageSize
		}
		counters, err := t.Mmap(size, dex.ProtRead|dex.ProtWrite, label)
		if err != nil {
			return err
		}
		var ws []*dex.Thread
		for id := 0; id < threads; id++ {
			w, err := t.Spawn(func(w *dex.Thread) error {
				if err := w.Migrate(id * nodes / threads); err != nil {
					return err
				}
				w.SetSite("worker/update-loop")
				my := counters + dex.Addr(id*stride)
				for i := 0; i < updates; i++ {
					if _, err := w.AddUint64(my, 1); err != nil {
						return err
					}
					w.Compute(2 * time.Microsecond) // some local work per update
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
		return nil
	})
	if err := cluster.Wait(); err != nil {
		return nil, dex.Report{}, err
	}
	trace, report := dex.ProfileOf(rec), proc.Report()
	trace.SetRegions(report.Regions)
	return trace, report, nil
}

func main() {
	fmt.Println("### packed per-thread counters (false sharing) ###")
	trace, rep, err := run(false)
	if err != nil {
		log.Fatal(err)
	}
	trace.Report(os.Stdout, 3)
	fmt.Printf("\nelapsed: %v   write faults: %d   retries (NACKs): %d\n",
		rep.Elapsed, rep.DSM.WriteFaults, rep.DSM.Nacks)

	fmt.Println("\n### page-aligned counters (fixed, as §IV-B prescribes) ###")
	trace, rep, err = run(true)
	if err != nil {
		log.Fatal(err)
	}
	trace.Report(os.Stdout, 3)
	fmt.Printf("\nelapsed: %v   write faults: %d   retries (NACKs): %d\n",
		rep.Elapsed, rep.DSM.WriteFaults, rep.DSM.Nacks)
}

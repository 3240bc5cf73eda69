// Quickstart: extend a process beyond one machine with a single call.
//
// A four-node cluster runs one process. Worker threads relocate themselves
// to remote nodes with Migrate, increment a counter in the shared address
// space — ordinary loads and stores, kept consistent by the page-level
// protocol — and return. The main thread reads the total back.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"dex"
)

func main() {
	cluster := dex.NewCluster(4)
	report, err := cluster.Run(func(t *dex.Thread) error {
		// One page of shared memory holding the counter.
		counter, err := t.Mmap(dex.PageSize, dex.ProtRead|dex.ProtWrite, "counter")
		if err != nil {
			return err
		}

		var workers []*dex.Thread
		for node := 1; node < 4; node++ {
			w, err := t.Spawn(func(w *dex.Thread) error {
				// Relocate this thread to another machine...
				if err := w.Migrate(node); err != nil {
					return err
				}
				fmt.Printf("worker %d now executing on node %d\n", w.ID(), w.Node())
				// ...and keep using the same memory as everyone else.
				for i := 0; i < 100; i++ {
					if _, err := w.AddUint64(counter, 1); err != nil {
						return err
					}
				}
				return w.MigrateBack()
			})
			if err != nil {
				return err
			}
			workers = append(workers, w)
		}
		for _, w := range workers {
			if err := t.Join(w); err != nil {
				return err
			}
		}

		total, err := t.ReadUint64(counter)
		if err != nil {
			return err
		}
		fmt.Printf("counter = %d (expected 300)\n", total)
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("virtual time: %v, migrations: %d, page faults: %d (%d writes)\n",
		report.Elapsed, report.Migrations, report.DSM.Faults(), report.DSM.WriteFaults)
}

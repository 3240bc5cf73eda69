package dex_test

import (
	"fmt"
	"log"

	"dex"
)

// ExampleCluster_Run shows the paper's core idea: a thread migrates to
// another machine with one call and keeps using the same memory.
func ExampleCluster_Run() {
	cluster := dex.NewCluster(2)
	_, err := cluster.Run(func(t *dex.Thread) error {
		counter, err := t.Mmap(dex.PageSize, dex.ProtRead|dex.ProtWrite, "counter")
		if err != nil {
			return err
		}
		w, err := t.Spawn(func(w *dex.Thread) error {
			if err := w.Migrate(1); err != nil {
				return err
			}
			_, err := w.AddUint64(counter, 41)
			if err != nil {
				return err
			}
			return w.MigrateBack()
		})
		if err != nil {
			return err
		}
		t.Join(w)
		if _, err := t.AddUint64(counter, 1); err != nil {
			return err
		}
		v, err := t.ReadUint64(counter)
		if err != nil {
			return err
		}
		fmt.Println("counter:", v)
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	// Output: counter: 42
}

// ExampleMutex shows cross-node mutual exclusion: the lock's futex word
// lives in shared memory and contended waits are delegated to the origin.
func ExampleMutex() {
	cluster := dex.NewCluster(2)
	_, err := cluster.Run(func(t *dex.Thread) error {
		mu, err := dex.NewMutex(t)
		if err != nil {
			return err
		}
		data, err := t.Mmap(dex.PageSize, dex.ProtRead|dex.ProtWrite, "data")
		if err != nil {
			return err
		}
		w, err := t.Spawn(func(w *dex.Thread) error {
			if err := w.Migrate(1); err != nil {
				return err
			}
			if err := mu.Lock(w); err != nil {
				return err
			}
			defer mu.Unlock(w)
			return w.WriteUint64(data, 7)
		})
		if err != nil {
			return err
		}
		t.Join(w)
		if err := mu.Lock(t); err != nil {
			return err
		}
		defer mu.Unlock(t)
		v, err := t.ReadUint64(data)
		if err != nil {
			return err
		}
		fmt.Println("protected value:", v)
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	// Output: protected value: 7
}

// ExampleTrace shows the §IV profiling workflow: run under a recorder, take
// the run's profile from it, then ask which program objects caused the most
// consistency faults.
func ExampleTrace() {
	rec := dex.NewFaultRecorder()
	cluster := dex.NewCluster(2, dex.WithObserver(rec))
	p := cluster.Start(func(t *dex.Thread) error {
		hot, err := t.Mmap(dex.PageSize, dex.ProtRead|dex.ProtWrite, "hot-object")
		if err != nil {
			return err
		}
		if err := t.WriteUint64(hot, 1); err != nil {
			return err
		}
		if err := t.Migrate(1); err != nil {
			return err
		}
		if err := t.WriteUint64(hot, 2); err != nil { // cross-node write fault
			return err
		}
		return t.MigrateBack()
	})
	if err := cluster.Wait(); err != nil {
		log.Fatal(err)
	}
	trace := dex.ProfileOf(rec)
	trace.SetRegions(p.Report().Regions)
	top := trace.TopRegions(1)
	fmt.Println("hottest object:", top[0].Key)
	// Output: hottest object: hot-object
}

package exper

import (
	"fmt"
	"time"

	"dex/internal/apps"
	"dex/internal/core"
	"dex/internal/mem"
)

// AblationAlignment (A5) reproduces the §IV-B caution against blanket page
// alignment: "moving every declared program object to a separate page would
// cause the binaries to balloon in size, and dynamically allocating every
// object in its own page could cause extreme internal memory fragmentation
// and out-of-memory errors ... Instead of applying page alignment to every
// program object, we identified and selectively aligned per-node objects
// that caused the most interference."
//
// Every object is private to one thread; the layouts differ only in which
// objects share pages. Packed interleaves different threads' objects on the
// same pages (maximal false sharing); selective groups each thread's
// objects into its own page-aligned run (the paper's approach); blanket
// gives every object its own page, which removes the false sharing too but
// balloons the resident set and pays a cold fault per object.
func AblationAlignment(r *Runner, _ apps.Size) Table {
	const (
		perThread = 64 // small private counters per thread
		updates   = 300
		objBytes  = 32
		threadCnt = 8
		objects   = perThread * threadCnt
	)
	type layout int
	const (
		packed layout = iota
		selective
		blanket
	)
	type alignResult struct {
		Span  time.Duration
		Pages int
	}
	run := func(l layout) alignResult {
		var span time.Duration
		rep := runMachine(core.DefaultParams(4), func(th *core.Thread) error {
			// Every object is PRIVATE to one thread; the layouts differ
			// only in which objects share pages.
			var size uint64
			switch l {
			case packed:
				size = uint64(objects * objBytes)
			case selective:
				perGroup := uint64((perThread*objBytes + mem.PageSize - 1) &^ (mem.PageSize - 1))
				size = uint64(threadCnt) * perGroup
			case blanket:
				size = uint64(objects) * mem.PageSize
			}
			base, err := th.Mmap(size, mem.ProtRead|mem.ProtWrite, "objects")
			if err != nil {
				return err
			}
			// addrOf maps (thread, object) to an address. Packed layout
			// interleaves different threads' objects on the same pages —
			// the §IV-B false-sharing pattern; selective groups each
			// thread's objects onto its own page-aligned run; blanket puts
			// every object on its own page.
			addrOf := func(t, j int) mem.Addr {
				switch l {
				case blanket:
					return base + mem.Addr((t*perThread+j)*mem.PageSize)
				case selective:
					perGroup := (perThread*objBytes + mem.PageSize - 1) &^ (mem.PageSize - 1)
					return base + mem.Addr(t*perGroup) + mem.Addr(j*objBytes)
				default:
					return base + mem.Addr((j*threadCnt+t)*objBytes)
				}
			}
			start := th.Now()
			_, err = fanOut(th, []int{0, 1, 2, 3, 0, 1, 2, 3}, func(w *core.Thread, t int) error {
				for u := 0; u < updates; u++ {
					if _, err := w.AddUint64(addrOf(t, u%perThread), 1); err != nil {
						return err
					}
					w.Compute(2 * time.Microsecond)
				}
				return nil
			})
			span = th.Now() - start
			return err
		})
		return alignResult{span, rep.TotalResidentPages()}
	}
	t := Table{
		ID:     "A5",
		Title:  "object alignment strategies (§IV-B): 512 private objects, 8 threads on 4 nodes",
		Header: []string{"layout", "span", "resident-pages", "resident-bytes"},
	}
	type row struct {
		name, key string
		v         layout
	}
	layouts := []row{
		{"packed (maximal false sharing)", "packed", packed},
		{"selective alignment (paper design)", "selective", selective},
		{"blanket page alignment", "blanket", blanket},
	}
	results := Sweep(r, func(l row) string { return "ablation/alignment/layout=" + l.key }, layouts,
		func(l row) alignResult { return run(l.v) })
	for i, l := range layouts {
		res := results[i]
		t.Rows = append(t.Rows, []string{
			l.name, res.Span.Round(time.Microsecond).String(),
			fmt.Sprint(res.Pages), fmt.Sprint(res.Pages * mem.PageSize),
		})
	}
	t.Notes = append(t.Notes,
		"selective alignment approaches blanket-alignment speed at a fraction of the resident set (§IV-B)")
	return t
}

package exper

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"dex/internal/apps"
)

func TestRunnerMemoizesByKey(t *testing.T) {
	r := NewRunner(4)
	var runs atomic.Int32
	var cells []*Cell
	for i := 0; i < 16; i++ {
		cells = append(cells, r.Submit("k", func() any {
			runs.Add(1)
			return 42
		}))
	}
	for _, c := range cells {
		if v := c.Wait().(int); v != 42 {
			t.Fatalf("cell value = %v", v)
		}
		if c != cells[0] {
			t.Fatal("same key produced distinct cells")
		}
	}
	if n := runs.Load(); n != 1 {
		t.Fatalf("cell ran %d times", n)
	}
}

func TestRunnerDistinctKeysAllRun(t *testing.T) {
	r := NewRunner(3)
	var runs atomic.Int32
	var cells []*Cell
	for i := 0; i < 20; i++ {
		i := i
		cells = append(cells, r.Submit(fmt.Sprintf("k%d", i), func() any {
			runs.Add(1)
			return i
		}))
	}
	for i, c := range cells {
		if v := c.Wait().(int); v != i {
			t.Fatalf("cell %d = %v", i, v)
		}
	}
	if n := runs.Load(); n != 20 {
		t.Fatalf("ran %d cells", n)
	}
}

func TestRunnerConcurrentSubmitSameKey(t *testing.T) {
	r := NewRunner(4)
	var runs atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Submit("shared", func() any {
				runs.Add(1)
				return "v"
			})
			if got := c.Wait().(string); got != "v" {
				t.Errorf("got %q", got)
			}
		}()
	}
	wg.Wait()
	if n := runs.Load(); n != 1 {
		t.Fatalf("shared cell ran %d times", n)
	}
}

func TestRunnerProgressCounts(t *testing.T) {
	r := NewRunner(2)
	events := make(chan Progress, 16)
	r.SetProgress(func(p Progress) { events <- p })
	for i := 0; i < 5; i++ {
		i := i
		r.Submit(fmt.Sprintf("p%d", i), func() any { return i })
	}
	// complete() increments the count under the runner lock, so the five
	// events carry Completed = 1..5 in some delivery order.
	completions := make(map[int]bool)
	for len(completions) < 5 {
		p := <-events
		if p.Submitted > 5 || p.Completed > p.Submitted {
			t.Fatalf("inconsistent progress event %+v", p)
		}
		if completions[p.Completed] {
			t.Fatalf("duplicate completion count %d", p.Completed)
		}
		completions[p.Completed] = true
	}
}

// TestExperimentsShareMigrationCell asserts the headline memoization win:
// Table II and Figure 3 read the same microbenchmark cell, so running both
// on one runner executes it once.
func TestExperimentsShareMigrationCell(t *testing.T) {
	r := NewRunner(2)
	t2 := Table2(r, apps.SizeTest)
	f3 := Figure3(r, apps.SizeTest)
	if len(t2.Rows) == 0 || len(f3.Rows) == 0 {
		t.Fatal("empty tables")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.cells) != 1 {
		keys := make([]string, 0, len(r.cells))
		for k := range r.cells {
			keys = append(keys, k)
		}
		t.Fatalf("expected one shared cell, got %v", keys)
	}
}

// TestExperimentsDeterministicAcrossPoolWidths runs a representative
// experiment set sequentially and on a wide pool and requires identical
// rendered tables — the harness-level same-seed determinism guarantee.
func TestExperimentsDeterministicAcrossPoolWidths(t *testing.T) {
	ids := []string{"table2", "figure3", "faults", "ablation-coalescing", "ablation-vma"}
	render := func(parallel int) string {
		r := NewRunner(parallel)
		out := ""
		for _, id := range ids {
			e, ok := ByID(id)
			if !ok {
				t.Fatalf("unknown experiment %q", id)
			}
			out += e.Run(r, apps.SizeTest).Render()
		}
		return out
	}
	seq := render(1)
	par := render(8)
	if seq != par {
		t.Fatalf("tables differ between pool widths:\n--- sequential ---\n%s\n--- parallel ---\n%s", seq, par)
	}
}

// TestExperCellBudget pins how many distinct simulations the whole evaluation
// at test size runs through one runner. Figure 2 normalises against its own
// Initial n=1 cell and E0 runs the Initial port, so the unmodified program
// costs no cells of its own; a cell that stops being shared, or a duplicate
// spelling of a run, moves the count.
func TestExperCellBudget(t *testing.T) {
	const want = 147
	r := NewRunner(0)
	for _, e := range All() {
		e.Run(r, apps.SizeTest)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if got := len(r.cells); got != want {
		t.Fatalf("the evaluation submitted %d distinct cells, want %d", got, want)
	}
}

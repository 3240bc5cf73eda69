package workloads

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"dex/internal/apps"
	"dex/internal/exper"
)

// goldenPath is the dexbench golden the suite's tables must reproduce.
const goldenPath = "cmd/dexbench/testdata/golden.txt"

// newSuite is what CI and `dexbench -quiet` run: every experiment at test
// size through one fresh runner, the tables compared byte for byte with
// the dexbench golden. It ignores the seed — experiments fix their own.
// The experiment API takes no options, so suite runs carry no event limit
// and no recorder; the traced iteration is profiled only.
func newSuite(cfg Config) (*Workload, error) {
	golden, err := os.ReadFile(filepath.Join(cfg.Root, goldenPath))
	if err != nil {
		return nil, fmt.Errorf("suite: %w", err)
	}
	exps := exper.All()
	if cfg.Quick {
		// The experiments the suite's own metrics read: E0 for simulated
		// time, Table II and §V-D for the error against the paper.
		exps = nil
		for _, id := range []string{"scaleup", "table2", "faults"} {
			e, ok := exper.ByID(id)
			if !ok {
				return nil, fmt.Errorf("suite: no experiment %q", id)
			}
			exps = append(exps, e)
		}
	}
	w := &Workload{Name: "suite"}
	w.Iterate = func(parent int, _ bool) Iteration {
		runner := exper.NewRunner(runtime.NumCPU())
		var mu sync.Mutex
		cells := 0
		runner.SetProgress(func(p exper.Progress) {
			mu.Lock()
			cells = p.Submitted
			mu.Unlock()
		})
		// As dexbench does: start every experiment at once so the cell
		// pool stays full and shared cells dedupe, then take the tables
		// in registry order.
		tables := make([]exper.Table, len(exps))
		var wg sync.WaitGroup
		for i, e := range exps {
			wg.Add(1)
			go func(i int, e exper.Experiment) {
				defer wg.Done()
				sp := cfg.Log.Begin(parent, "Experiment.Run "+e.ID)
				tables[i] = e.Run(runner, apps.SizeTest)
				cfg.Log.End(sp)
			}(i, e)
		}
		wg.Wait()

		var out bytes.Buffer
		ok := true
		for _, t := range tables {
			text := t.Render() + "\n"
			out.WriteString(text)
			ok = ok && bytes.Contains(golden, []byte(text))
		}
		if !cfg.Quick {
			ok = bytes.Equal(out.Bytes(), golden)
		}
		run := Run{Label: "suite", Check: fmt.Sprintf("tables=%d bytes=%d", len(tables), out.Len())}
		if !ok {
			run.Err = fmt.Errorf("suite: rendered tables diverge from %s", goldenPath)
		}
		for _, t := range tables {
			if t.ID == "E0" {
				run.Elapsed = scaleUpTime(t)
			}
		}
		mu.Lock()
		defer mu.Unlock()
		return Iteration{Runs: []Run{run}, Tables: tables, Cells: cells}
	}
	return w, nil
}

// scaleUpTime sums the completion times of table E0 (eight applications at
// 1–32 threads on the scale-up node): the suite's simulated time. The
// experiment harness exposes no per-cell elapsed time, so the table is the
// only place to read it.
func scaleUpTime(t exper.Table) time.Duration {
	var sum time.Duration
	for _, row := range t.Rows {
		for _, cell := range row {
			if d, err := time.ParseDuration(cell); err == nil {
				sum += d
			}
		}
	}
	return sum
}

// PaperError is the mean relative error, in percent, of the five simulated
// headline numbers against the paper's: Table II forward #1, forward #2
// and backward migration latency, and the §V-D fast-path and retried fault
// latency. Both sides are read from the tables' own rows.
func PaperError(tables []exper.Table) (float64, error) {
	var errs []float64
	add := func(measured, paper string) error {
		m, err1 := strconv.ParseFloat(strings.TrimSuffix(measured, "µs"), 64)
		p, err2 := strconv.ParseFloat(strings.TrimSuffix(paper, "µs"), 64)
		if err1 != nil || err2 != nil || p == 0 {
			return fmt.Errorf("paper error: cannot compare %q with %q", measured, paper)
		}
		errs = append(errs, math.Abs(m-p)/p)
		return nil
	}
	for _, t := range tables {
		for _, row := range t.Rows {
			var err error
			switch {
			case t.ID == "E3" && (row[0] == "forward #1" || row[0] == "forward #2" || row[0] == "backward avg"):
				err = add(row[3], row[4])
			case t.ID == "E5" && strings.HasSuffix(row[0], "avg latency"):
				err = add(row[1], row[2])
			}
			if err != nil {
				return 0, err
			}
		}
	}
	if len(errs) != 5 {
		return 0, fmt.Errorf("paper error: found %d of the 5 headline rows", len(errs))
	}
	sum := 0.0
	for _, e := range errs {
		sum += e
	}
	return 100 * sum / float64(len(errs)), nil
}

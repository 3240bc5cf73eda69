package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"dex/benchmark/cpuprof"
	"dex/benchmark/probes"
	"dex/benchmark/workloads"
)

// TestMain lets the test binary stand in for the benchmark binary: a run
// over all workloads starts each workload as a child process of its own
// executable, which under `go test` is this binary.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var mf manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&mf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return mf
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifestMatchesTables checks BENCHMARK.json against the driver's
// limits and against the metric and workload tables compiled into the
// benchmark: the two must name the same things with the same units.
func TestManifestMatchesTables(t *testing.T) {
	mf := readManifest(t)
	if mf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the benchmark's default is %d", mf.RunSeconds, defaultSeconds)
	}
	if len(mf.Paths) != 1 || mf.Paths[0] != "benchmark" {
		t.Errorf("paths %v, want [benchmark]", mf.Paths)
	}

	var names []string
	for _, w := range mf.Workloads {
		names = append(names, w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if got, want := strings.Join(names, " "), strings.Join(workloads.Names(), " "); got != want {
		t.Errorf("workloads %q, the benchmark has %q", got, want)
	}

	seen := map[string]bool{}
	check := func(m manifestMetric, unit, better string) {
		if seen[m.Name] {
			t.Errorf("metric %s listed twice", m.Name)
		}
		seen[m.Name] = true
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s (unit %q): name or unit outside the allowed characters", m.Name, m.Unit)
		}
		if m.Unit != unit || m.Better != better {
			t.Errorf("metric %s: manifest says %s/%s, the benchmark %s/%s", m.Name, m.Unit, m.Better, unit, better)
		}
	}

	// end_to_end holds the metrics the driver gates; the others ride at the
	// end of per_layer.
	var gated, riders []endToEndMetric
	for _, m := range endToEnd {
		if m.forDriver() {
			gated = append(gated, m)
		} else {
			riders = append(riders, m)
		}
	}
	if len(mf.EndToEnd) != len(gated) {
		t.Fatalf("end_to_end has %d metrics, want %d", len(mf.EndToEnd), len(gated))
	}
	hasSetup := false
	for i, m := range mf.EndToEnd {
		check(m, gated[i].unit, gated[i].better)
		if m.Name != gated[i].name {
			t.Errorf("end_to_end[%d] is %s, want %s", i, m.Name, gated[i].name)
		}
		if m.Bound == nil || *m.Bound != gated[i].driverBound || *m.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound must be the table's %v, and at most 0.25", m.Name, gated[i].driverBound)
		}
		hasSetup = hasSetup || m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower"
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s")
	}
	if len(perLayer) != 104 {
		t.Errorf("the per-layer table has %d metrics, the issue fixed 104", len(perLayer))
	}
	if len(mf.PerLayer) != len(perLayer)+len(riders) || len(mf.PerLayer) > 128 {
		t.Fatalf("per_layer has %d metrics, want %d", len(mf.PerLayer), len(perLayer)+len(riders))
	}
	for i, m := range mf.PerLayer {
		if m.Bound != nil {
			t.Errorf("per_layer %s has a bound", m.Name)
		}
		if i < len(perLayer) {
			if m.Name != perLayer[i].name {
				t.Errorf("per_layer[%d] is %s, want %s", i, m.Name, perLayer[i].name)
			}
			check(m, perLayer[i].unit, m.Better)
			continue
		}
		r := riders[i-len(perLayer)]
		if m.Name != r.name {
			t.Errorf("per_layer[%d] is %s, want %s", i, m.Name, r.name)
		}
		check(m, r.unit, r.better)
	}

	// Every probe reports into the table, and every profile layer has a
	// share in it.
	inTable := map[string]string{}
	for _, m := range perLayer {
		inTable[m.name] = m.source
	}
	for _, name := range probes.Names() {
		if inTable[name] != srcProbe {
			t.Errorf("probe metric %s is not a P row of the per-layer table", name)
		}
	}
	for _, layer := range cpuprof.Layers {
		if inTable[hostShareName(layer)] != srcHost {
			t.Errorf("profile layer %s has no H row in the per-layer table", layer)
		}
	}
}

// TestQuickRun runs the whole benchmark — every workload in a child
// process, untraced then traced, probes at one operation — at 1/8 scale,
// and checks that every workload and metric BENCHMARK.json names comes out
// exactly once with a finite value, that the output checks pass, and that
// the host shares of each workload's profile sum to one.
func TestQuickRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	mf := readManifest(t)
	var out bytes.Buffer
	if err := run([]string{"-quick", "-out", t.TempDir()}, &out); err != nil {
		t.Fatalf("benchmark -quick: %v\n%s", err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	last := lines[len(lines)-1]
	if !strings.HasSuffix(last, `"claim":null}`) {
		t.Errorf("the summary must end with \"claim\": null, ends %q", last[max(0, len(last)-40):])
	}
	var sum summary
	if err := json.Unmarshal([]byte(last), &sum); err != nil {
		t.Fatalf("summary line: %v", err)
	}
	if !sum.Correct {
		t.Error("summary says an output check failed")
	}

	// The report is a block of "name value unit" lines per workload and
	// kind of run; count how often each name appears in each block.
	printed := map[string]map[string]int{}
	block := ""
	for _, line := range lines {
		f := strings.Fields(line)
		switch {
		case len(f) >= 5 && f[0] == "workload":
			block = f[1] + " " + f[4]
			if printed[block] != nil {
				t.Errorf("block %q printed twice", block)
			}
			printed[block] = map[string]int{}
		case strings.HasPrefix(line, "  ") && len(f) >= 3 && block != "":
			printed[block][f[0]]++
		}
	}

	for _, w := range mf.Workloads {
		values, ok := sum.Workloads[w.Name]
		if !ok {
			t.Errorf("workload %s missing from the summary", w.Name)
			continue
		}
		finite := func(name string) {
			v, ok := values[name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: metric %s missing or not finite", w.Name, name)
			}
		}
		for _, m := range mf.EndToEnd {
			finite(m.Name)
			if n := printed[w.Name+" untraced"][m.Name]; n != 1 {
				t.Errorf("%s: end-to-end metric %s printed %d times in the untraced block", w.Name, m.Name, n)
			}
			if values[m.Name] == 0 {
				t.Errorf("%s: end-to-end metric %s is 0", w.Name, m.Name)
			}
		}
		for _, m := range mf.PerLayer {
			finite(m.Name)
			if n := printed[w.Name+" traced"][m.Name]; n != 1 {
				t.Errorf("%s: per-layer metric %s printed %d times in the traced block", w.Name, m.Name, n)
			}
		}
		shares := 0.0
		for _, layer := range cpuprof.Layers {
			shares += values[hostShareName(layer)]
		}
		if math.Abs(shares-1) > 0.01 {
			t.Errorf("%s: host shares sum to %v", w.Name, shares)
		}
		if sum.Fingerprints[w.Name] == "" {
			t.Errorf("%s: no stats_fingerprint", w.Name)
		}
	}
}

// Command benchmark is the repository's benchmark: six workloads, thirteen
// end-to-end metrics measured untraced, and a traced run per workload that
// attributes the same work to the layers (the repository's packages). It
// is the instrument performance and simplicity changes are judged with; it
// claims no gain itself. README.md beside this file has the metric and
// workload tables and how to compare two commits.
//
// Run from the repository root:
//
//	go run ./benchmark                        # every workload, untraced then traced
//	go run ./benchmark -repeat 3              # spread of the untraced set against the bounds
//	go run ./benchmark -workload serve -seed 7 -seconds 12 -trace 0
//
// With -workload the process measures that one workload and prints, as
// the last line of standard output, one JSON object with the keys correct,
// attempted, failed and metrics — the form the benchmark driver reads
// (BENCHMARK.json). Without it, each workload runs in a child process of
// its own, so that peak memory and collector state do not leak between
// workloads, and the last line is a JSON summary of everything measured.
// The exit code is non-zero if any output check failed.
package main

import (
	"bufio"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"dex/benchmark/spans"
	"dex/benchmark/workloads"
)

// defaultSeconds is how long one run measures unless -seconds says
// otherwise; BENCHMARK.json gives the driver the same number.
const defaultSeconds = 12

//go:embed testdata/digests.txt
var digestFile string

// expectedDigests returns the output digests pinned in testdata for the
// run's scale. They exist for the default seed only; under any other seed
// a run is checked by the applications' own reference checks and by the
// equality of simulated statistics between iterations.
func expectedDigests(opt options) (map[string]string, error) {
	if opt.seed != 1 {
		return nil, nil
	}
	scale := "full"
	if opt.quick {
		scale = "quick"
	}
	out := map[string]string{}
	for _, line := range strings.Split(digestFile, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.SplitN(line, " ", 3)
		if len(f) != 3 {
			return nil, fmt.Errorf("testdata/digests.txt: malformed line %q", line)
		}
		if f[0] == scale {
			out[f[1]] = f[2]
		}
	}
	return out, nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

var errCheckFailed = errors.New("an output check failed")

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "measure this one workload in this process (default: all, one child process each)")
		seed     = fs.Int64("seed", 1, "workload seed: load.Spec.Seed, apps.Config.Seed, dex.WithSeed and the chaos plan")
		seconds  = fs.Float64("seconds", defaultSeconds, "how long one run measures")
		trace    = fs.Int("trace", 0, "with -workload: 0 measures the end-to-end metrics untraced, 1 the per-layer metrics traced")
		quick    = fs.Bool("quick", false, "one iteration per workload at 1/8 scale and probes at one operation; what the package test runs")
		repeat   = fs.Int("repeat", 1, "run the untraced set this many times and print each metric's spread between sets against its bound")
		runProbe = fs.Bool("probes", true, "with -workload -trace 1: run the layer probes")
		out      = fs.String("out", "", "directory for spans.json (default: benchmark/out under the module root)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// One P unless the environment asks for more. On the two shared vCPUs
	// this was sized on, the same binary ran 1.4–1.6× slower with a second
	// P and spread three to ten times wider between runs — a goroutine
	// hand-off of the simulator then wakes a thread on a halted vCPU, at
	// the hypervisor's mercy (README.md, "Why one P").
	if os.Getenv("GOMAXPROCS") == "" {
		runtime.GOMAXPROCS(1)
	}
	root, err := moduleRoot()
	if err != nil {
		return err
	}
	if *out == "" {
		*out = filepath.Join(root, "benchmark", "out")
	}
	if *quick {
		*seconds = 0 // one set-up pass, one iteration of each kind
	}
	if *repeat < 1 {
		return fmt.Errorf("-repeat %d: need at least one set", *repeat)
	}

	opt := options{workload: *workload, seed: *seed, seconds: *seconds, traced: *trace != 0, quick: *quick, probes: *runProbe, root: root}
	if opt.workload != "" {
		return runOne(opt, *out, stdout)
	}
	return runAll(opt, *repeat, *out, stdout)
}

// moduleRoot walks up from the working directory to the directory holding
// the dex module's go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(data), "module dex\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the dex module: no go.mod found")
		}
		dir = parent
	}
}

// driverLine is the last line of a -workload run, in the form the
// benchmark driver reads.
type driverLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultPrefix marks the line that carries a child's full result to the
// parent process of a run over all workloads.
const resultPrefix = "result "

// runOne measures one workload in this process.
func runOne(opt options, outDir string, stdout io.Writer) error {
	res, err := measure(opt)
	if err != nil {
		return fmt.Errorf("%s: %w", opt.workload, err)
	}
	if err := writeSpans(outDir, res.Spans); err != nil {
		return err
	}
	printResult(stdout, res)

	full, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s%s\n", resultPrefix, full)

	// The driver's end_to_end list holds the metrics every workload has;
	// the traced run reports the per-layer list, where the others ride.
	line := driverLine{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]driverMetric{}}
	for _, v := range res.Metrics {
		if !opt.traced && !isForDriver(v.Name) {
			continue
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("%s: metric %s is not finite", opt.workload, v.Name)
		}
		line.Metrics[v.Name] = driverMetric{Value: v.Value, Unit: v.Unit}
	}
	last, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", last)
	if res.Failed > 0 {
		return errCheckFailed
	}
	return nil
}

func isForDriver(name string) bool {
	for _, m := range endToEnd {
		if m.name == name {
			return m.forDriver()
		}
	}
	return false
}

func printResult(w io.Writer, res *result) {
	kind := "untraced"
	if res.Traced {
		kind = "traced"
	}
	fmt.Fprintf(w, "workload %s  seed %d  %s  %d iteration(s), %d set-up pass(es)\n",
		res.Workload, res.Seed, kind, res.Iterations, res.SetupPasses)
	for _, v := range res.Metrics {
		src := ""
		if v.Source != "" {
			src = " [" + v.Source + "]"
		}
		if v.N > 1 {
			fmt.Fprintf(w, "  %-28s %16.6g %-12s of %d: min %.6g median %.6g max %.6g\n", v.Name, v.Value, v.Unit, v.N, v.Min, v.Median, v.Max)
		} else {
			fmt.Fprintf(w, "  %-28s %16.6g %-12s%s\n", v.Name, v.Value, v.Unit, src)
		}
	}
	fmt.Fprintf(w, "  %-28s %16s\n", "stats_fingerprint", res.Fingerprint)
	// The digests in the form testdata/digests.txt pins them.
	scale := "full"
	if res.Quick {
		scale = "quick"
	}
	keys := make([]string, 0, len(res.Digests))
	for key := range res.Digests {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		fmt.Fprintf(w, "  digest %s %s %s\n", scale, key, res.Digests[key])
	}
	for _, e := range res.Errors {
		fmt.Fprintf(w, "  FAILED %s\n", e)
	}
}

func writeSpans(dir string, all []spans.Span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(all)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "spans.json"), data, 0o644)
}

// summary is the last line of a run over all workloads.
type summary struct {
	Host      hostInfo                      `json:"host"`
	Seed      int64                         `json:"seed"`
	Seconds   float64                       `json:"seconds"`
	Correct   bool                          `json:"correct"`
	Workloads map[string]map[string]float64 `json:"workloads"`
	// Fingerprints holds one hash per workload over every simulated
	// statistic; two commits whose simulated behaviour is equal agree on it.
	Fingerprints map[string]string `json:"stats_fingerprint"`
	Unresolved   []string          `json:"unresolved,omitempty"`
	// Claim is always null: the benchmark measures, it claims no gain.
	Claim *string `json:"claim"`
}

type hostInfo struct {
	NumCPU    int    `json:"nproc"`
	MaxProcs  int    `json:"gomaxprocs"`
	GoVersion string `json:"go"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
}

// runAll measures every workload, each in a child process of its own: the
// untraced set repeat times, then one traced run per workload.
func runAll(opt options, repeat int, outDir string, stdout io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	child := func(workload string, traced, probe bool) (*result, error) {
		args := []string{"-workload", workload, "-seed", fmt.Sprint(opt.seed), "-seconds", fmt.Sprint(opt.seconds),
			"-out", outDir, fmt.Sprintf("-probes=%v", probe)}
		if traced {
			args = append(args, "-trace", "1")
		}
		if opt.quick {
			args = append(args, "-quick")
		}
		return runChild(exe, args, stdout)
	}

	sum := summary{
		Host:         hostInfo{NumCPU: runtime.NumCPU(), MaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH},
		Seed:         opt.seed,
		Seconds:      opt.seconds,
		Correct:      true,
		Workloads:    map[string]map[string]float64{},
		Fingerprints: map[string]string{},
	}
	var allSpans []spans.Span
	keep := func(res *result) {
		base := len(allSpans)
		for _, s := range res.Spans {
			s.ID += base
			if s.Parent != 0 {
				s.Parent += base
			}
			allSpans = append(allSpans, s)
		}
		sum.Correct = sum.Correct && res.Failed == 0
	}

	sets := make([]map[string]*result, repeat)
	for i := range sets {
		sets[i] = map[string]*result{}
		for _, name := range workloads.Names() {
			res, err := child(name, false, false)
			if err != nil {
				return err
			}
			keep(res)
			sets[i][name] = res
		}
	}
	var probeValues []value
	for _, name := range workloads.Names() {
		res, err := child(name, true, probeValues == nil)
		if err != nil {
			return err
		}
		keep(res)
		// The probes do not depend on the workload: the first traced run
		// measures them and every workload's block carries the same values.
		if probeValues == nil {
			for _, v := range res.Metrics {
				if v.Source == srcProbe {
					probeValues = append(probeValues, v)
				}
			}
		}
		block := map[string]float64{}
		for _, v := range sets[0][name].Metrics {
			block[v.Name] = v.Value
		}
		for _, v := range res.Metrics {
			if _, untraced := block[v.Name]; !untraced {
				block[v.Name] = v.Value
			}
		}
		for _, v := range probeValues {
			block[v.Name] = v.Value
		}
		sum.Workloads[name] = block
		sum.Fingerprints[name] = sets[0][name].Fingerprint
		if res.Fingerprint != sets[0][name].Fingerprint {
			sum.Correct = false
			fmt.Fprintf(stdout, "FAILED %s: the traced run's simulated statistics differ from the untraced run's (%s, %s)\n",
				name, res.Fingerprint, sets[0][name].Fingerprint)
		}
	}
	if repeat > 1 {
		sum.Unresolved = printSpread(stdout, sets)
	}
	if err := writeSpans(outDir, allSpans); err != nil {
		return err
	}
	last, err := json.Marshal(sum)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", last)
	if !sum.Correct {
		return errCheckFailed
	}
	return nil
}

// runChild runs one workload in a child process, passes its report
// through, and returns the result it carries. A child that fails an output
// check still delivers its result; any other failure is an error.
func runChild(exe string, args []string, stdout io.Writer) (*result, error) {
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = os.Stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	var res *result
	sc := bufio.NewScanner(pipe)
	sc.Buffer(nil, 64<<20) // the result line carries the run's spans
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, resultPrefix):
			res = new(result)
			if err := json.Unmarshal([]byte(line[len(resultPrefix):]), res); err != nil {
				res = nil
			}
		case strings.HasPrefix(line, "{"):
			// The driver line; the parent prints a summary of its own.
		default:
			fmt.Fprintln(stdout, line)
		}
	}
	werr := cmd.Wait()
	if res == nil {
		return nil, fmt.Errorf("child %v delivered no result: %v", args, werr)
	}
	return res, nil
}

// childEnv marks a process started by runChild. The package test's
// binary looks for it to act as the benchmark instead of running tests.
const childEnv = "DEX_BENCHMARK_CHILD"

// printSpread prints, per workload and end-to-end metric, the relative
// spread between the repeated sets — (max − min) / median of the sets'
// values — against the metric's bound. A metric whose spread exceeds its
// bound cannot show a regression of that size on this host: it is
// reported as unresolved, not as passing.
func printSpread(w io.Writer, sets []map[string]*result) []string {
	var unresolved []string
	fmt.Fprintf(w, "spread between %d sets\n", len(sets))
	for _, name := range workloads.Names() {
		for _, m := range endToEnd {
			if !m.appliesTo(name) {
				continue
			}
			var vals []float64
			for _, set := range sets {
				if v, ok := set[name].metric(m.name); ok {
					vals = append(vals, v.Value)
				}
			}
			s := summarize("", "", "", vals...)
			spread := 0.0
			if s.Value != 0 {
				spread = (s.Max - s.Min) / math.Abs(s.Value)
			} else if s.Max != s.Min {
				spread = math.Inf(1)
			}
			verdict := "ok"
			if spread > m.bound {
				verdict = "unresolved"
				unresolved = append(unresolved, name+"/"+m.name)
			}
			fmt.Fprintf(w, "  %-12s %-20s spread %8.4f  bound %5.2f  %s\n", name, m.name, spread, m.bound, verdict)
		}
	}
	return unresolved
}

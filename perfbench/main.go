// Command perfbench is the repository's benchmark. It drives the program
// only through its public entry points (sim.Run, the experiments sweep-grid
// job layer, and the dist coordinator/worker), checks every report it gets
// back, and prints one JSON result line last:
//
//	perfbench --workload imprint-cifar --seed 1 --seconds 30 --trace 0
//
// --trace 0 prints the end-to-end metrics of untraced runs; --trace 1 prints
// the per-layer breakdown of a separate traced run. See README.md for the
// metrics, the workloads and how to read the breakdown.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"github.com/oasisfl/oasis/internal/tensor"
)

const (
	// setupReps is how many times a run repeats a simulation's set-up calls
	// for setup_s; the median is reported.
	setupReps = 9
	// minOps is the fewest measured operations (sim runs or grid passes) a
	// run makes, however short --seconds is.
	minOps = 3
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one invocation: a workload at a seed, with the worker counts it
// resolved and the operations it attempted.
type bench struct {
	w       workload
	seed    uint64
	digests digestTable
	seen    map[string]string

	clientWorkers int // sim.Options.Workers of simulation runs
	cellWorkers   int // grid pool slots
	distWorkers   int // dist workers of the traced grid run

	attempted, failed int
	problems          []string
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 30, "measurement time per run")
		trace   = flag.Int("trace", 0, "1 prints the traced per-layer breakdown instead of end-to-end metrics")
		digests = flag.Bool("digests", false, "print the default-seed report digests (the contents of digests.json) and exit")
		compare = flag.Bool("compare", false, "compare two saved outputs given as arguments; refuses different core counts")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *digests, *compare); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds, trace int, printDigests, compare bool) error {
	if compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare needs two output files")
		}
		return compareOutputs(flag.Arg(0), flag.Arg(1))
	}
	table, err := loadDigests()
	if err != nil {
		return err
	}
	if printDigests {
		return writeDigests(table.DefaultSeed)
	}
	w, err := lookupWorkload(name)
	if err != nil {
		return err
	}
	if seconds < 1 || trace < 0 || trace > 1 {
		return fmt.Errorf("--seconds must be ≥ 1 and --trace 0 or 1")
	}
	b := newBench(w, seed, table)
	dur := time.Duration(seconds) * time.Second
	start := time.Now()
	b.dryCheck()
	var ms map[string]metric
	var counts map[string]any
	switch {
	case trace == 1 && w.isGrid():
		ms = b.traceGrid(w.grid(seed, false), dur)
	case trace == 1:
		ms = b.traceSim(w.scenario(seed, false), dur)
	case w.isGrid():
		e, _ := b.measureGrid(w.grid(seed, false), start.Add(dur))
		ms, counts = e.metrics(), e.counts()
	default:
		e := b.measureSim(w.scenario(seed, false), start.Add(dur))
		ms, counts = e.metrics(), e.counts()
	}
	for k, m := range ms {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			b.record(fmt.Errorf("metric %s is %v", k, m.Value))
			ms[k] = metric{0, m.Unit}
		}
	}
	for _, p := range b.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	rec := b.machine()
	rec["elapsed_s"] = time.Since(start).Seconds()
	rec["samples"] = counts
	if err := printJSON(map[string]any{"record": rec}); err != nil {
		return err
	}
	return printJSON(result{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   ms,
	})
}

func newBench(w workload, seed uint64, table digestTable) *bench {
	workers := min(runtime.NumCPU(), 2)
	return &bench{
		w: w, seed: seed, digests: table, seen: map[string]string{},
		clientWorkers: workers, cellWorkers: workers, distWorkers: workers,
	}
}

// machine is the record every result carries: the core count it was taken
// at and every worker count the run resolved.
func (b *bench) machine() map[string]any {
	return map[string]any{
		"workload":       b.w.name,
		"seed":           b.seed,
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"go_version":     runtime.Version(),
		"godebug":        os.Getenv("GODEBUG"),
		"goarch":         runtime.GOARCH,
		"client_workers": b.clientWorkers,
		"cell_workers":   b.cellWorkers,
		"dist_workers":   b.distWorkers,
		"tensor_workers": tensor.Workers(),
	}
}

func printJSON(v any) error {
	js, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", js)
	return err
}

// writeDigests prints digests.json for the current program: every
// workload's full and dry report digest at the default seed.
func writeDigests(seed uint64) error {
	out := digestTable{DefaultSeed: seed, Full: map[string]string{}, Dry: map[string]string{}}
	for _, w := range workloads {
		for _, dry := range []bool{false, true} {
			d, err := reportDigest(w, seed, dry)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			if dry {
				out.Dry[w.name] = d
			} else {
				out.Full[w.name] = d
			}
		}
	}
	js, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", js)
	return nil
}

// compareOutputs prints the ratio of every metric in two saved outputs of
// this program. Results taken at different core counts do not compare.
func compareOutputs(pathA, pathB string) error {
	a, err := readOutput(pathA)
	if err != nil {
		return err
	}
	b, err := readOutput(pathB)
	if err != nil {
		return err
	}
	for _, k := range []string{"nproc", "gomaxprocs", "workload"} {
		if fmt.Sprint(a.record[k]) != fmt.Sprint(b.record[k]) {
			return fmt.Errorf("refusing to compare: %s is %v in %s and %v in %s", k, a.record[k], pathA, b.record[k], pathB)
		}
	}
	names := make([]string, 0, len(a.res.Metrics))
	for k := range a.res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		ma, mb := a.res.Metrics[k], b.res.Metrics[k]
		fmt.Printf("%-32s %14.6g %14.6g %-6s ×%.3f\n", k, ma.Value, mb.Value, ma.Unit, mb.Value/ma.Value)
	}
	return nil
}

type output struct {
	record map[string]any
	res    result
}

func readOutput(path string) (output, error) {
	var out output
	raw, err := os.ReadFile(path)
	if err != nil {
		return out, err
	}
	for _, line := range bytes.Split(raw, []byte("\n")) {
		var rec struct {
			Record map[string]any `json:"record"`
		}
		if json.Unmarshal(line, &rec) == nil && rec.Record != nil {
			out.record = rec.Record
		}
		var res result
		if json.Unmarshal(line, &res) == nil && res.Metrics != nil {
			out.res = res
		}
	}
	if out.record == nil || out.res.Metrics == nil {
		return out, fmt.Errorf("%s: no record or result line", path)
	}
	return out, nil
}

package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

var validName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// benchmarkFile is the part of ../BENCHMARK.json the tests compare with
// the program.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestNamesMatchBenchmarkFile(t *testing.T) {
	f := readBenchmarkFile(t)
	var names, listed []string
	for _, w := range workloads {
		names = append(names, w.name)
		if w.listed {
			listed = append(listed, w.name)
		}
	}
	var inFile []string
	for _, w := range f.Workloads {
		inFile = append(inFile, w.Name)
	}
	if !reflect.DeepEqual(listed, inFile) {
		t.Errorf("BENCHMARK.json lists workloads %v, the program %v", inFile, listed)
	}
	check := func(kind string, program []spec, file []struct{ Name, Unit string }) {
		if len(program) != len(file) {
			t.Errorf("%s: program has %d metrics, BENCHMARK.json %d", kind, len(program), len(file))
		}
		for i := range min(len(program), len(file)) {
			if program[i].name != file[i].Name || program[i].unit != file[i].Unit {
				t.Errorf("%s metric %d: program %v, BENCHMARK.json %v", kind, i, program[i], file[i])
			}
		}
		for _, s := range program {
			names = append(names, s.name)
		}
	}
	check("end_to_end", endToEnd, f.EndToEnd)
	check("per_layer", perLayer, f.PerLayer)
	seen := map[string]bool{}
	for _, n := range names {
		if !validName.MatchString(n) {
			t.Errorf("name %q is not [A-Za-z0-9_.-]+ of at most 64 characters", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
}

// TestSpecifiedNamesPresent pins the workload and metric names the
// benchmark is specified with, so none is renamed away.
func TestSpecifiedNamesPresent(t *testing.T) {
	want := []string{
		"imprint-cifar", "population-1M", "grid-sweep",
		"setup_s", "run_s", "round_ms_p50", "round_ms_tail", "client_updates_per_s", "samples_per_s",
		"cells_per_s", "job_ms_p50", "job_ms_tail", "peak_heap_mb", "alloc_mb_per_round", "alloc_mb_per_job",
		"tensor.matmul_ms", "tensor.matmul_ta_ms", "tensor.matmul_tb_ms", "tensor.pool_hit_ratio",
		"tensor.alloc_mb_per_client", "nn.gradients_ms",
		"fl.sample_us", "fl.lease_ms", "fl.aggregate_us", "fl.encode_ms", "fl.decode_ms", "fl.client_ms",
		"fl.client_wait_ms", "fl.client_attempted", "fl.client_failed", "fl.client_dropped",
		"data.partition_ms", "data.shard_us", "data.batch_us", "defense.batch_ms", "defense.grads_ms",
		"attack.calibrate_ms", "attack.modify_ms", "attack.observe_ms", "attack.recon_per_update",
		"imaging.score_ms", "sim.materialize_ms", "sim.eval_ms", "sim.score_ms",
		"experiments.job_ms", "experiments.job_scenario_us", "experiments.merge_ms", "experiments.idle_ms",
		"dist.overhead_ms_per_job", "dist.checkpoint_append_ms", "dist.relets", "obs.overhead_pct",
	}
	have := map[string]bool{}
	for _, w := range workloads {
		have[w.name] = true
	}
	for _, s := range append(append([]spec(nil), endToEnd...), perLayer...) {
		have[s.name] = true
	}
	for _, l := range modelLayers {
		want = append(want, "nn."+l+".forward_ms", "nn."+l+".backward_ms")
	}
	for _, n := range want {
		if !have[n] {
			t.Errorf("specified name %q is missing", n)
		}
	}
}

// TestResultsCarryEveryMetric checks that both result kinds print exactly
// the listed metrics with their units.
func TestResultsCarryEveryMetric(t *testing.T) {
	e := &e2e{batch: 2, setupS: []float64{1}, runS: []float64{2}, jobMS: []float64{3}, roundMS: []float64{4},
		heapMB: []float64{5}, allocJob: []float64{6}, allocRnd: []float64{7}, rates: []float64{8}, jobs: 1, opJobs: 1}
	for kind, pair := range map[string]struct {
		got  map[string]metric
		want []spec
	}{"end_to_end": {e.metrics(), endToEnd}, "per_layer": {zeroLayers(), perLayer}} {
		if len(pair.got) != len(pair.want) {
			t.Errorf("%s: %d metrics, want %d", kind, len(pair.got), len(pair.want))
		}
		for _, s := range pair.want {
			if m, ok := pair.got[s.name]; !ok || m.Unit != s.unit {
				t.Errorf("%s: metric %s = %+v, want unit %s", kind, s.name, m, s.unit)
			}
		}
	}
}

func inputs(w workload, seed uint64, dry bool) any {
	if w.isGrid() {
		return w.grid(seed, dry)
	}
	return w.scenario(seed, dry)
}

func TestInputsDeterministicInSeed(t *testing.T) {
	for _, w := range workloads {
		for _, dry := range []bool{false, true} {
			a, b, c := inputs(w, 7, dry), inputs(w, 7, dry), inputs(w, 8, dry)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s (dry=%v): two builds at one seed differ", w.name, dry)
			}
			if reflect.DeepEqual(a, c) {
				t.Errorf("%s (dry=%v): seeds 7 and 8 give the same inputs", w.name, dry)
			}
		}
	}
}

func TestDryRunsPassOutputCheck(t *testing.T) {
	table, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		b := newBench(w, table.DefaultSeed, table)
		b.dryCheck()
		if b.failed != 0 || b.attempted == 0 {
			t.Errorf("%s: dry run attempted %d, failed %d: %v", w.name, b.attempted, b.failed, b.problems)
		}
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, pct := tail(xs); pct != 90 || v != 90 {
		t.Errorf("tail of 1..100 = %v at p%v, want 90 at p90", v, pct)
	}
	if v, pct := tail(xs[:50]); pct != 80 || v != 40 {
		t.Errorf("tail of 1..50 = %v at p%v, want 40 at p80", v, pct)
	}
	if v, pct := tail(xs[:15]); pct != 50 || v != 8 {
		t.Errorf("tail of 1..15 = %v at p%v, want the median 8 at p50", v, pct)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"github.com/oasisfl/oasis/internal/dist"
	"github.com/oasisfl/oasis/internal/experiments"
	"github.com/oasisfl/oasis/internal/nn"
	"github.com/oasisfl/oasis/internal/obs"
	"github.com/oasisfl/oasis/internal/sim"
	"github.com/oasisfl/oasis/internal/tensor"
)

// modelLayers names the layers of every model the workloads dispatch: the
// honest MLP and the attacks' victim model (imprint layer, ReLU, head).
var modelLayers = []string{"fc1", "relu1", "fc2", "malicious", "malicious.relu", "head"}

// clientLayers are the probe timings made inside a client's round; their
// sum is the part of client busy time the breakdown accounts for.
var clientLayers = []string{"fl.decode", "data.batch", "defense.batch", "nn.loss", "nn.gradients", "defense.grads"}

// serverLayers are the probe timings made on the server goroutine.
var serverLayers = []string{"fl.sample", "fl.lease", "fl.encode", "attack.modify", "attack.observe",
	"fl.aggregate_add", "fl.aggregate_finalize"}

// traceSim splits the run in three: untraced sim.Runs, the same runs under
// an obs session, and one probe replay of the scenario.
func (b *bench) traceSim(sc sim.Scenario, d time.Duration) map[string]metric {
	slot := d / 3
	runtime.GC()
	plain := b.timedSimRuns(sc, time.Now().Add(slot))
	sum, traced := b.traced(func() []float64 { return b.timedSimRuns(sc, time.Now().Add(slot)) })
	runtime.GC()
	pr, err := runProbe(sc, b.clientWorkers)
	if !b.record(err) {
		return zeroLayers()
	}
	m := b.layerMetrics(pr, sum, len(traced), plain, traced)
	m["attack.calibrate_ms"] = metric{pr.lt.meanMS("attack.calibrate"), "ms"}
	return m
}

// timedSimRuns runs sim.Run back to back until the deadline (at least
// twice), checking each report, and returns the wall times in seconds.
func (b *bench) timedSimRuns(sc sim.Scenario, until time.Time) []float64 {
	var walls []float64
	for n := 0; n < 2 || time.Now().Before(until); n++ {
		runtime.GC()
		clock := newRoundClock()
		t0 := time.Now()
		rep, err := sim.Run(sc, sim.Options{Workers: b.clientWorkers, Log: clock})
		el := time.Since(t0).Seconds()
		if b.record(b.checkSim(sc, false, rep, err, clock)) {
			walls = append(walls, el)
		}
	}
	return walls
}

// traced runs f under an obs session and returns the session's summary.
func (b *bench) traced(f func() []float64) (*obs.TraceSummary, []float64) {
	if _, err := obs.Enable(obs.Config{Program: "perfbench"}); !b.record(err) {
		return &obs.TraceSummary{}, nil
	}
	walls := f()
	sum, err := obs.Disable()
	if !b.record(err) || sum == nil {
		return &obs.TraceSummary{}, walls
	}
	return sum, walls
}

// traceGrid runs untraced and traced grid passes, the same grid through
// experiments.RunSweep and through dist over loopback (both must merge to
// the same bytes), checkpoint appends, per-family attack calibration, and a
// probe replay of one composed-defense job.
func (b *bench) traceGrid(cfg experiments.SweepConfig, d time.Duration) map[string]metric {
	slot := d / 3
	_, passes := b.measureGrid(cfg, time.Now().Add(slot))
	if len(passes) == 0 {
		return zeroLayers()
	}
	plain := make([]float64, len(passes))
	var jobs, scen, idle, merge time.Duration
	nJobs := 0
	for i, p := range passes {
		plain[i] = p.wall.Seconds()
		for _, j := range p.jobs {
			jobs += j
		}
		nJobs += len(p.jobs)
		scen, idle, merge = scen+p.scenario, idle+p.idle, merge+p.merge
	}
	sum, traced := b.traced(func() []float64 {
		var walls []float64
		until := time.Now().Add(slot)
		for n := 0; n < 2 || time.Now().Before(until); n++ {
			runtime.GC()
			p, err := runGridPass(cfg, b.cellWorkers)
			if b.recordJobs(p, b.checkGrid(cfg, false, p, err)) {
				walls = append(walls, p.wall.Seconds())
			}
		}
		return walls
	})
	want, err := passes[0].report.JSON()
	if !b.record(err) {
		return zeroLayers()
	}

	sweepCfg := cfg
	sweepCfg.CellWorkers = b.cellWorkers
	rep, err := experiments.RunSweep(sweepCfg)
	b.record(sameReport("RunSweep", rep, err, want))

	dir, err := scratchDir()
	if !b.record(err) {
		return zeroLayers()
	}
	defer os.RemoveAll(dir)
	dm := b.traceDist(cfg, want, dir, passes[0])

	calib := newLayerTimes()
	base, err := cfg.Base.Normalize()
	if !b.record(err) {
		return zeroLayers()
	}
	in, err := buildSimInputs(base, nil)
	if !b.record(err) {
		return zeroLayers()
	}
	for _, kind := range cfg.Attacks {
		sc := base
		sc.Attack.Kind = kind
		t0 := time.Now()
		_, err := calibrate(kind, sc, in.train)
		calib.since("attack.calibrate", t0)
		b.record(err)
	}

	g := passes[0].grid
	job := g.JobID(g.NumCells()-1, 0) // last attack × composed defense
	runtime.GC()
	pr, err := runProbe(g.JobScenario(job), g.Workers)
	if !b.record(err) {
		return zeroLayers()
	}
	m := b.layerMetrics(pr, sum, len(traced)*g.NumJobs(), plain, traced)
	m["attack.calibrate_ms"] = metric{calib.meanMS("attack.calibrate"), "ms"}
	n := float64(len(passes))
	m["experiments.job_ms"] = metric{ms(jobs) / float64(nJobs), "ms"}
	m["experiments.job_scenario_us"] = metric{1000 * ms(scen) / float64(nJobs), "us"}
	m["experiments.merge_ms"] = metric{ms(merge) / n, "ms"}
	m["experiments.idle_ms"] = metric{ms(idle) / n, "ms"}
	for k, v := range dm {
		m[k] = v
	}
	return m
}

// traceDist runs the grid on an in-process dist coordinator with
// b.distWorkers workers over loopback TCP, under an obs session so the
// workers' dist.cell spans give the job busy time, then times checkpoint
// appends of the in-process results.
func (b *bench) traceDist(cfg experiments.SweepConfig, want []byte, dir string, pass *gridPass) map[string]metric {
	var wall time.Duration
	sum, _ := b.traced(func() []float64 {
		t0 := time.Now()
		rep, err := runDist(cfg, b.distWorkers, filepath.Join(dir, "dist.jsonl"))
		wall = time.Since(t0)
		b.record(sameReport("dist", rep, err, want))
		return nil
	})
	busy := phaseIndex(sum)["dist.cell"].TotalMS
	jobs := float64(pass.grid.NumJobs())
	m := map[string]metric{
		"dist.overhead_ms_per_job": {(ms(wall)*float64(b.distWorkers) - busy) / jobs, "ms"},
		"dist.relets":              {float64(sum.Counters["dist_released_total"] + sum.Counters["dist_duplicate_results_total"]), "count"},
	}
	ck, err := dist.OpenCheckpoint(filepath.Join(dir, "append.jsonl"), pass.grid)
	if !b.record(err) {
		return m
	}
	lt := newLayerTimes()
	for _, r := range pass.results[:min(len(pass.results), 50)] {
		t0 := time.Now()
		err := ck.Append(*r)
		lt.since("append", t0)
		b.record(err)
	}
	b.record(ck.Close())
	m["dist.checkpoint_append_ms"] = metric{lt.meanMS("append"), "ms"}
	return m
}

// runDist serves the grid from a coordinator on a loopback port to
// `workers` in-process workers and returns the merged report once every
// worker has stopped.
func runDist(cfg experiments.SweepConfig, workers int, checkpoint string) (*experiments.SweepReport, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c, err := dist.StartCoordinator(ctx, dist.CoordinatorConfig{Sweep: cfg, Addr: "127.0.0.1:0", Checkpoint: checkpoint})
	if err != nil {
		return nil, err
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = dist.RunWorker(ctx, dist.WorkerConfig{Addr: c.Addr(), ID: fmt.Sprintf("perfbench-%d", i), Workers: 1})
		}()
	}
	rep, err := c.Wait(ctx)
	cancel() // a worker still dialling after the goodbye stops here
	wg.Wait()
	for _, e := range errs {
		if e != nil && !errors.Is(e, context.Canceled) {
			err = errors.Join(err, e)
		}
	}
	return rep, err
}

func sameReport(what string, rep *experiments.SweepReport, err error, want []byte) error {
	if err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	got, err := rep.JSON()
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s report differs from the in-process grid's", what)
	}
	return nil
}

// scratchDir makes a temporary directory under .bench_build in the working
// directory, so the run writes nowhere else.
func scratchDir() (string, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(".bench_build", "perfbench-")
}

func phaseIndex(sum *obs.TraceSummary) map[string]obs.PhaseSummary {
	idx := map[string]obs.PhaseSummary{}
	for _, p := range sum.Phases {
		idx[p.Name] = p
	}
	return idx
}

// layerMetrics assembles the per-layer breakdown shared by every workload:
// probe timings, kernel timings, and the traced runs' spans and counters.
// tracedOps is the number of sim.Runs the traced summary covers.
func (b *bench) layerMetrics(pr *probeResult, sum *obs.TraceSummary, tracedOps int, plain, traced []float64) map[string]metric {
	lt := pr.lt
	m := zeroLayers()
	set := func(name string, v float64) { m[name] = metric{v, m[name].Unit} }

	for name, v := range kernelMS() {
		set(name, v)
	}
	c := sum.Counters
	if hits, misses := c["tensor_pool_hit_total"], c["tensor_pool_miss_total"]; hits+misses > 0 {
		set("tensor.pool_hit_ratio", float64(hits)/float64(hits+misses))
	}
	set("tensor.alloc_mb_per_client", pr.allocMB/float64(max(pr.clients, 1)))

	clientMS := 0.0
	for _, l := range clientLayers {
		clientMS += lt.totalMS(l)
	}
	for _, l := range modelLayers {
		fwd, bwd := "nn."+l+".forward", "nn."+l+".backward"
		set(fwd+"_ms", lt.meanMS(fwd))
		set(bwd+"_ms", lt.meanMS(bwd))
		clientMS += lt.totalMS(fwd) + lt.totalMS(bwd)
	}
	set("nn.loss_ms", lt.meanMS("nn.loss"))
	set("nn.gradients_ms", lt.meanMS("nn.gradients"))

	set("fl.sample_us", 1000*lt.meanMS("fl.sample"))
	set("fl.lease_ms", lt.meanMS("fl.lease"))
	if adds := lt.count("fl.aggregate_add"); adds > 0 {
		set("fl.aggregate_us", 1000*(lt.totalMS("fl.aggregate_add")+lt.totalMS("fl.aggregate_finalize"))/float64(adds))
	}
	set("fl.encode_ms", lt.meanMS("fl.encode"))
	set("fl.decode_ms", lt.meanMS("fl.decode"))
	set("fl.client_ms", lt.meanMS("fl.client"))
	set("fl.client_wait_ms", lt.meanMS("fl.client_wait"))

	ops := float64(max(tracedOps, 1))
	ok, failed := float64(c["fl_client_ok_total"]), float64(c["fl_client_failed_total"])
	dropped := float64(c["sim_dropout_total"] + c["sim_late_total"])
	set("fl.client_attempted", (ok+failed)/ops)
	set("fl.client_failed", (failed-dropped)/ops)
	set("fl.client_dropped", dropped/ops)

	set("data.partition_ms", lt.meanMS("data.partition"))
	set("data.shard_us", 1000*lt.meanMS("data.shard"))
	set("data.batch_us", 1000*lt.meanMS("data.batch"))
	set("defense.batch_ms", lt.meanMS("defense.batch"))
	set("defense.grads_ms", lt.meanMS("defense.grads"))
	set("attack.modify_ms", lt.meanMS("attack.modify"))
	set("attack.observe_ms", lt.meanMS("attack.observe"))
	if pr.observed > 0 {
		set("attack.recon_per_update", float64(pr.recons)/float64(pr.observed))
	}
	set("imaging.score_ms", lt.totalMS("imaging.score"))

	ph := phaseIndex(sum)
	set("sim.materialize_ms", ph["sim.materialize"].MeanMS)
	set("sim.eval_ms", ph["sim.eval"].MeanMS)
	set("sim.score_ms", ph["sim.score"].MeanMS)

	if base := median(plain); base > 0 && len(traced) > 0 {
		set("obs.overhead_pct", 100*(median(traced)-base)/base)
	}
	// Coverage compares the probe's per-client layer times with the client
	// busy time the engine's own fl.client spans measured in the traced
	// runs, and the probe's per-round accounting with the engine's fl.round.
	if ok > 0 && pr.clients > 0 {
		perClient := clientMS / float64(pr.clients)
		set("trace.client_coverage_pct", 100*perClient/(ph["fl.client"].TotalMS/ok))
		if rounds := ph["fl.round"]; rounds.Count > 0 {
			server := 0.0
			for _, l := range serverLayers {
				server += lt.totalMS(l)
			}
			okPerRound := ok / float64(rounds.Count)
			accounted := server/float64(pr.rounds) + perClient*okPerRound/float64(max(pr.workers, 1))
			set("trace.round_coverage_pct", 100*accounted/rounds.MeanMS)
		}
	}
	return m
}

// kernelMS times the matmul family at the imprint layer's shape: a batch of
// 8 flattened 3×32×32 images against 500 neurons. Each value is the median
// of repeated calls.
func kernelMS() map[string]float64 {
	const batch, in, neurons = 8, 3 * 32 * 32, 500
	rng := nn.RandSource(1, 1)
	x := tensor.New(batch, in)
	x.FillRandn(rng, 1)
	w := tensor.New(neurons, in)
	w.FillRandn(rng, 0.02)
	wt := tensor.New(in, neurons)
	wt.FillRandn(rng, 0.02)
	g := tensor.New(batch, neurons)
	g.FillRandn(rng, 1)
	kernels := map[string]func() *tensor.Tensor{
		"tensor.matmul_ms":    func() *tensor.Tensor { return tensor.MatMul(x, wt) },
		"tensor.matmul_ta_ms": func() *tensor.Tensor { return tensor.MatMulTransA(x, g) },
		"tensor.matmul_tb_ms": func() *tensor.Tensor { return tensor.MatMulTransB(x, w) },
	}
	out := map[string]float64{}
	for name, k := range kernels {
		var times []float64
		start := time.Now()
		for len(times) < 20 || (len(times) < 500 && time.Since(start) < 300*time.Millisecond) {
			t0 := time.Now()
			r := k()
			times = append(times, ms(time.Since(t0)))
			r.Release()
		}
		out[name] = median(times)
	}
	return out
}

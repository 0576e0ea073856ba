package main

import (
	"context"
	"fmt"
	"regexp"
	"runtime"
	"runtime/metrics"
	"strconv"
	"sync"
	"time"

	"github.com/oasisfl/oasis/internal/experiments"
	"github.com/oasisfl/oasis/internal/sim"
)

const mib = 1 << 20

// memReader reads cumulative heap allocation and the live heap (the bytes
// the last GC cycle marked reachable, so garbage is not counted).
type memReader struct{ s []metrics.Sample }

func newMemReader() *memReader {
	return &memReader{s: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/live:bytes"}}}
}

func (m *memReader) read() (alloc, live uint64) {
	metrics.Read(m.s)
	return m.s[0].Value.Uint64(), m.s[1].Value.Uint64()
}

// roundLine matches the per-round progress line sim.Options.Log receives.
var roundLine = regexp.MustCompile(`round (\d+)/\d+: (\d+)/\d+ ok`)

// roundClock is a sim.Options.Log sink. The engine writes one progress line
// at the end of every round, so consecutive lines bound one round's wall
// time. Round 0 starts inside sim.Run's set-up and yields no round sample.
type roundClock struct {
	mem       *memReader
	last      time.Time
	lastAlloc uint64

	completed []int     // completed client updates, every round
	roundMS   []float64 // rounds 1.. only
	allocMB   []float64 // rounds 1.. only
	rates     []float64 // completed updates per second, rounds 1.. only
	peakLive  uint64
	err       error
}

func newRoundClock() *roundClock {
	c := &roundClock{mem: newMemReader(), last: time.Now()}
	c.lastAlloc, _ = c.mem.read()
	return c
}

func (c *roundClock) Write(p []byte) (int, error) {
	now := time.Now()
	alloc, live := c.mem.read()
	m := roundLine.FindSubmatch(p)
	if m == nil {
		c.err = fmt.Errorf("unparsed progress line %q", p)
		return len(p), nil
	}
	ok, _ := strconv.Atoi(string(m[2]))
	if len(c.completed) > 0 {
		c.roundMS = append(c.roundMS, ms(now.Sub(c.last)))
		c.allocMB = append(c.allocMB, float64(alloc-c.lastAlloc)/mib)
		c.rates = append(c.rates, float64(ok)/now.Sub(c.last).Seconds())
	}
	c.completed = append(c.completed, ok)
	c.peakLive = max(c.peakLive, live)
	c.last, c.lastAlloc = now, alloc
	return len(p), nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// e2e accumulates one untraced run's samples.
type e2e struct {
	batch    int // samples per completed client update
	opJobs   int // jobs per measured operation
	setupS   []float64
	runS     []float64 // per sim.Run, or per grid pass
	jobMS    []float64 // per sim.Run, or per grid job
	roundMS  []float64
	heapMB   []float64 // peak live heap per sim.Run or grid pass
	allocJob []float64 // MB per sim.Run (simulations)
	allocRnd []float64 // MB per round (simulations)
	allocTot float64   // MB over all grid passes
	rounds   int       // rounds over all grid passes
	rates    []float64 // completed client updates per second, per round
	jobs     int
}

// metrics renders the end-to-end metrics.
func (e *e2e) metrics() map[string]metric {
	roundTail, _ := tail(e.roundMS)
	jobTail, _ := tail(e.jobMS)
	allocRound, allocJob := median(e.allocRnd), median(e.allocJob)
	if e.rounds > 0 {
		allocRound = e.allocTot / float64(e.rounds)
		allocJob = e.allocTot / float64(e.jobs)
	}
	updatesPerS := median(e.rates)
	return map[string]metric{
		"setup_s":              {median(e.setupS), "s"},
		"run_s":                {median(e.runS), "s"},
		"round_ms_p50":         {median(e.roundMS), "ms"},
		"round_ms_tail":        {roundTail, "ms"},
		"client_updates_per_s": {updatesPerS, "1/s"},
		"samples_per_s":        {updatesPerS * float64(e.batch), "1/s"},
		"cells_per_s":          {float64(e.opJobs) / median(e.runS), "1/s"},
		"job_ms_p50":           {median(e.jobMS), "ms"},
		"job_ms_tail":          {jobTail, "ms"},
		"peak_heap_mb":         {median(e.heapMB), "MB"},
		"alloc_mb_per_round":   {allocRound, "MB"},
		"alloc_mb_per_job":     {allocJob, "MB"},
	}
}

// counts records the sample sizes and tail percentiles behind the metrics.
func (e *e2e) counts() map[string]any {
	_, rp := tail(e.roundMS)
	_, jp := tail(e.jobMS)
	return map[string]any{
		"setup_samples": len(e.setupS), "run_samples": len(e.runS),
		"round_samples": len(e.roundMS), "round_tail_pct": rp,
		"job_samples": len(e.jobMS), "job_tail_pct": jp,
	}
}

// measureSim times the scenario's set-up calls, then runs sim.Run back to
// back until the deadline, checking every report.
func (b *bench) measureSim(sc sim.Scenario, until time.Time) *e2e {
	e := &e2e{batch: sc.BatchSize, opJobs: 1}
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if _, err := buildSimInputs(sc, nil); err != nil {
			b.record(fmt.Errorf("set-up: %w", err))
			return e
		}
		e.setupS = append(e.setupS, time.Since(t0).Seconds())
	}
	mem := newMemReader()
	for n := 0; n < minOps || time.Now().Before(until); n++ {
		runtime.GC() // every run starts from the same heap
		clock := newRoundClock()
		a0, _ := mem.read()
		t0 := time.Now()
		rep, err := sim.Run(sc, sim.Options{Workers: b.clientWorkers, Log: clock})
		el := time.Since(t0)
		a1, _ := mem.read()
		if !b.record(b.checkSim(sc, false, rep, err, clock)) {
			continue
		}
		e.runS = append(e.runS, el.Seconds())
		e.jobMS = append(e.jobMS, ms(el))
		e.roundMS = append(e.roundMS, clock.roundMS...)
		e.allocRnd = append(e.allocRnd, clock.allocMB...)
		e.allocJob = append(e.allocJob, float64(a1-a0)/mib)
		e.heapMB = append(e.heapMB, float64(clock.peakLive)/mib)
		e.rates = append(e.rates, clock.rates...)
		e.jobs++
	}
	return e
}

// gridPass is one run of the whole grid through a bounded pool of
// SweepGrid jobs, with the timings the traced breakdown needs.
type gridPass struct {
	grid     *experiments.SweepGrid
	report   *experiments.SweepReport
	results  []*experiments.SweepJobResult
	clocks   []*roundClock
	setup    time.Duration // grid build until the first job starts
	wall     time.Duration
	jobs     []time.Duration
	scenario time.Duration // Σ JobScenario
	idle     time.Duration // Σ time pool slots waited for a job
	merge    time.Duration
}

// runGridPass builds the grid and runs every job on `workers` pool slots,
// each job through experiments.RunSweepJob exactly as SweepGrid.RunJob
// calls it, plus a progress sink that times its rounds.
func runGridPass(cfg experiments.SweepConfig, workers int) (*gridPass, error) {
	t0 := time.Now()
	g, err := experiments.NewSweepGrid(cfg)
	if err != nil {
		return nil, err
	}
	n := g.NumJobs()
	p := &gridPass{grid: g, results: make([]*experiments.SweepJobResult, n),
		clocks: make([]*roundClock, n), jobs: make([]time.Duration, n)}
	var (
		mu    sync.Mutex
		first time.Time
		wg    sync.WaitGroup
	)
	ids := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var idle, scen time.Duration
			defer func() {
				mu.Lock()
				p.idle += idle
				p.scenario += scen
				mu.Unlock()
			}()
			for {
				tw := time.Now()
				id, ok := <-ids
				start := time.Now()
				idle += start.Sub(tw)
				if !ok {
					return
				}
				mu.Lock()
				if first.IsZero() {
					first = start
				}
				mu.Unlock()
				sc := g.JobScenario(id)
				scen += time.Since(start)
				clock := newRoundClock()
				res := experiments.RunSweepJob(context.Background(), g.Job(id), sc,
					sim.Options{Quick: g.Quick, Workers: g.Workers, Log: clock})
				p.jobs[id] = time.Since(start)
				p.results[id], p.clocks[id] = &res, clock
			}
		}()
	}
	for id := 0; id < n; id++ {
		ids <- id
	}
	close(ids)
	wg.Wait()
	tm := time.Now()
	p.report, err = g.Merge(p.results)
	p.merge = time.Since(tm)
	p.wall = time.Since(t0)
	p.setup = first.Sub(t0)
	return p, err
}

// measureGrid runs whole grid passes back to back until the deadline.
func (b *bench) measureGrid(cfg experiments.SweepConfig, until time.Time) (*e2e, []*gridPass) {
	e := &e2e{batch: cfg.Base.BatchSize}
	mem := newMemReader()
	var passes []*gridPass
	for n := 0; n < minOps || time.Now().Before(until); n++ {
		runtime.GC() // every pass starts from the same heap
		a0, _ := mem.read()
		p, err := runGridPass(cfg, b.cellWorkers)
		a1, _ := mem.read()
		if !b.recordJobs(p, b.checkGrid(cfg, false, p, err)) {
			continue
		}
		passes = append(passes, p)
		e.setupS = append(e.setupS, p.setup.Seconds())
		e.runS = append(e.runS, p.wall.Seconds())
		e.allocTot += float64(a1-a0) / mib
		peak := uint64(0)
		for i, c := range p.clocks {
			e.jobMS = append(e.jobMS, ms(p.jobs[i]))
			e.roundMS = append(e.roundMS, c.roundMS...)
			e.rates = append(e.rates, c.rates...)
			e.rounds += len(c.completed)
			peak = max(peak, c.peakLive)
		}
		e.heapMB = append(e.heapMB, float64(peak)/mib)
		e.jobs += len(p.jobs)
		e.opJobs = len(p.jobs)
	}
	return e, passes
}

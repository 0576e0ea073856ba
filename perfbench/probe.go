package main

import (
	"context"
	"fmt"
	rand "math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"github.com/oasisfl/oasis/internal/attack"
	"github.com/oasisfl/oasis/internal/data"
	"github.com/oasisfl/oasis/internal/defense"
	"github.com/oasisfl/oasis/internal/fl"
	"github.com/oasisfl/oasis/internal/imaging"
	"github.com/oasisfl/oasis/internal/nn"
	"github.com/oasisfl/oasis/internal/sim"
	"github.com/oasisfl/oasis/internal/tensor"
)

// layerTimes accumulates wall time and call counts per layer name. A nil
// *layerTimes records nothing, so set-up code can run timed or untimed.
type layerTimes struct {
	mu sync.Mutex
	d  map[string]time.Duration
	n  map[string]int
}

func newLayerTimes() *layerTimes {
	return &layerTimes{d: map[string]time.Duration{}, n: map[string]int{}}
}

func (lt *layerTimes) since(name string, t0 time.Time) { lt.add(name, time.Since(t0)) }

func (lt *layerTimes) add(name string, d time.Duration) {
	if lt == nil {
		return
	}
	lt.mu.Lock()
	lt.d[name] += d
	lt.n[name]++
	lt.mu.Unlock()
}

func (lt *layerTimes) totalMS(name string) float64 { return ms(lt.d[name]) }

func (lt *layerTimes) count(name string) int { return lt.n[name] }

// meanMS is the mean time per call, 0 for a layer never called.
func (lt *layerTimes) meanMS(name string) float64 {
	if lt.n[name] == 0 {
		return 0
	}
	return lt.totalMS(name) / float64(lt.n[name])
}

// The seeds and salts sim.Run derives its set-up streams from, so the
// set-up calls below build the same partition, model and attack.
const (
	partitionSalt = 0x5c3a_12f0
	modelSalt     = 0x30de1
	attackSalt    = 0xa77ac
)

// simInputs is everything a simulation builds before its first round.
type simInputs struct {
	sc    sim.Scenario // normalized
	train data.Dataset
	parts *data.LazyPartition
	model *nn.Sequential
	atk   *attack.DishonestServer
}

// buildSimInputs makes the same set-up calls sim.Run makes before its
// first round: the datasets, the lazy partition, the defense spec check, the
// global model and the attack calibration. lt, when set, times the
// partition and the calibration.
func buildSimInputs(sc sim.Scenario, lt *layerTimes) (*simInputs, error) {
	sc, err := sc.Normalize()
	if err != nil {
		return nil, err
	}
	if sc.Model.Kind != "mlp" {
		return nil, fmt.Errorf("model kind %q is not benchmarked", sc.Model.Kind)
	}
	d := sc.Dataset
	in := &simInputs{sc: sc}
	in.train = data.NewSynthCustom(sc.Name+"-train", d.Classes, d.Channels, d.Height, d.Width, d.Samples, sc.Seed)
	_ = data.NewSynthCustom(sc.Name+"-test", d.Classes, d.Channels, d.Height, d.Width, sc.TestSamples, sc.Seed^0x7e57)
	p, err := data.NewPartitioner(sc.Partition)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	in.parts, err = data.PartitionLazy(p, in.train, sc.Clients, nn.RandSource(sc.Seed, partitionSalt))
	lt.since("data.partition", t0)
	if err != nil {
		return nil, err
	}
	if sc.Defense.Kind != "" {
		if _, err := defense.NewPipeline(sc.Defense.Kind, defense.Config{}); err != nil {
			return nil, err
		}
	}
	c, h, w := in.train.Shape()
	rng := nn.RandSource(sc.Seed+4, modelSalt)
	in.model = nn.NewSequential(
		nn.NewLinear("fc1", c*h*w, sc.Model.Hidden, rng),
		nn.NewReLU("relu1"),
		nn.NewLinear("fc2", sc.Model.Hidden, d.Classes, rng),
	)
	if sc.Attack.Kind != "" {
		t0 := time.Now()
		in.atk, err = calibrate(sc.Attack.Kind, sc, in.train)
		lt.since("attack.calibrate", t0)
		if err != nil {
			return nil, err
		}
	}
	return in, nil
}

// calibrate builds a dishonest server for one attack family: attack.New
// followed by attack.NewAttackServer.
func calibrate(kind string, sc sim.Scenario, ds data.Dataset) (*attack.DishonestServer, error) {
	c, h, w := ds.Shape()
	rng := nn.RandSource(sc.Seed+3, attackSalt)
	a, err := attack.New(kind, attack.Config{
		Dims:    attack.ImageDims{C: c, H: h, W: w},
		Classes: ds.NumClasses(),
		Neurons: sc.Attack.Neurons,
		Probe:   ds,
		Batch:   sc.Attack.AnticipatedBatch,
		Rng:     rng,
	})
	if err != nil {
		return nil, err
	}
	return attack.NewAttackServer(a, rng)
}

// probe replays a scenario's rounds on a real fl.Server whose roster,
// clients, sampler, aggregator and attack hooks are wrappers that time each
// call into the layer below. Its clients do the work fl.LocalClient does —
// decode, batch, defense, forward, loss, backward, gradient clone — one
// timed call at a time. Every probe client completes: dropout and
// stragglers are left to the traced sim.Run, whose counters report them.
type probe struct {
	lt  *layerTimes
	in  *simInputs
	mem *memReader

	dispatched atomic.Int64 // UnixNano when the round's model left the server
	observed   int          // updates the attack inverted

	mu        sync.Mutex
	originals map[string][]*imaging.Image // client/round → pre-defense batch
}

type probeResult struct {
	lt       *layerTimes
	rounds   int
	clients  int     // client updates computed
	allocMB  float64 // heap allocated during the rounds
	observed int
	recons   int
	workers  int // clients that train at once
}

func runProbe(sc sim.Scenario, workers int) (*probeResult, error) {
	lt := newLayerTimes()
	in, err := buildSimInputs(sc, lt)
	if err != nil {
		return nil, err
	}
	sc = in.sc
	p := &probe{lt: lt, in: in, mem: newMemReader(), originals: map[string][]*imaging.Image{}}
	srv := fl.NewServer(fl.ServerConfig{
		Rounds:           sc.Rounds,
		ClientsPerRound:  sc.ClientsPerRound,
		LearningRate:     sc.LearningRate,
		Seed:             sc.Seed,
		Workers:          workers,
		TolerateFailures: true,
		AllowEmptyRounds: true,
		ReleaseUpdates:   true,
	}, in.model, nil)
	srv.Virtual = &probeRoster{p: p, resident: map[int]*probeClient{}}
	sampler, err := fl.NewSamplerByName(sc.Sampling)
	if err != nil {
		return nil, err
	}
	is, ok := sampler.(fl.IndexSampler)
	if !ok {
		return nil, fmt.Errorf("sampler %s cannot sample indices", sampler.Name())
	}
	srv.Sampler = probeSampler{IndexSampler: is, p: p}
	agg, err := fl.NewAggregatorByName(sc.Aggregator)
	if err != nil {
		return nil, err
	}
	srv.Aggregator = probeAgg{Aggregator: agg, lt: lt}
	srv.Modifier, srv.Observer = p, p

	a0, _ := p.mem.read()
	if _, err := srv.Run(context.Background()); err != nil {
		return nil, err
	}
	a1, _ := p.mem.read()
	res := &probeResult{lt: lt, rounds: sc.Rounds, clients: lt.count("fl.client"),
		allocMB: float64(a1-a0) / mib, observed: p.observed, workers: min(workers, sc.Clients)}
	if cohort := sc.ClientsPerRound; cohort > 0 {
		res.workers = min(workers, cohort)
	}
	if in.atk != nil {
		t0 := time.Now()
		for _, c := range in.atk.Captures() {
			res.recons += len(c.Reconstructions)
			orig := p.originals[captureKey(c.ClientID, c.Round)]
			if len(orig) == 0 || len(c.Reconstructions) == 0 {
				continue
			}
			attack.Evaluate(c.Reconstructions, orig)
			for _, r := range c.Reconstructions {
				imaging.BestSSIM(r, orig)
			}
		}
		lt.since("imaging.score", t0)
	}
	return res, nil
}

func captureKey(client string, round int) string { return fmt.Sprintf("%s/%d", client, round) }

func (p *probe) attacking(round int) bool {
	return p.in.atk != nil && p.in.sc.Attack.Active(round)
}

func (p *probe) Name() string { return "perfbench-probe" }

// Modify times a fresh encode of the global model (the server has just
// made the same call) and, on attack rounds, the dishonest rewrite.
func (p *probe) Modify(round int, spec fl.ModelSpec) (fl.ModelSpec, error) {
	t0 := time.Now()
	if _, err := fl.EncodeModel(p.in.model); err != nil {
		return spec, err
	}
	p.lt.since("fl.encode", t0)
	out := spec
	if p.attacking(round) {
		t1 := time.Now()
		var err error
		if out, err = p.in.atk.Modify(round, spec); err != nil {
			return spec, err
		}
		p.lt.since("attack.modify", t1)
	}
	p.dispatched.Store(time.Now().UnixNano())
	return out, nil
}

func (p *probe) Observe(round int, u fl.Update) {
	if !p.attacking(round) {
		return
	}
	t0 := time.Now()
	p.in.atk.Observe(round, u)
	p.lt.since("attack.observe", t0)
	p.observed++
}

type probeSampler struct {
	fl.IndexSampler
	p *probe
}

func (s probeSampler) SampleIndices(round, n, m int, size func(int) int, rng *rand.Rand) []int {
	t0 := time.Now()
	out := s.IndexSampler.SampleIndices(round, n, m, size, rng)
	s.p.lt.since("fl.sample", t0)
	return out
}

type probeAgg struct {
	fl.Aggregator
	lt *layerTimes
}

func (a probeAgg) Add(u fl.Update) error {
	t0 := time.Now()
	err := a.Aggregator.Add(u)
	a.lt.since("fl.aggregate_add", t0)
	return err
}

func (a probeAgg) Finalize() ([]*tensor.Tensor, error) {
	t0 := time.Now()
	out, err := a.Aggregator.Finalize()
	a.lt.since("fl.aggregate_finalize", t0)
	return out, err
}

// probeRoster leases cohort clients the way sim's virtual population does:
// a client is built from its lazy shard on first lease and kept resident.
type probeRoster struct {
	p        *probe
	resident map[int]*probeClient
}

func (r *probeRoster) NumClients() int          { return r.p.in.sc.Clients }
func (r *probeRoster) NumSamples(i int) int     { return r.p.in.parts.ShardLen(i) }
func (r *probeRoster) Release(int, []fl.Client) {}

func (r *probeRoster) Lease(round int, indices []int) ([]fl.Client, error) {
	t0 := time.Now()
	defer r.p.lt.since("fl.lease", t0)
	out := make([]fl.Client, len(indices))
	for j, i := range indices {
		c, ok := r.resident[i]
		if !ok {
			var err error
			if c, err = r.instantiate(i); err != nil {
				return nil, err
			}
			r.resident[i] = c
		}
		out[j] = c
	}
	return out, nil
}

func (r *probeRoster) instantiate(i int) (*probeClient, error) {
	in := r.p.in
	sc := in.sc
	t0 := time.Now()
	shard := in.parts.Shard(i)
	r.p.lt.since("data.shard", t0)
	c := &probeClient{
		p:     r.p,
		id:    fmt.Sprintf("client-%04d", i),
		shard: data.NewSubset(in.train, shard, fmt.Sprintf("%s-shard-%d", sc.Name, i)),
		rng:   nn.RandSource(sc.Seed+1, uint64(i)),
	}
	if defended(sc, i) {
		pl, err := defense.NewPipeline(sc.Defense.Kind, defense.Config{Rng: nn.RandSource(sc.Seed+2, uint64(i))})
		if err != nil {
			return nil, err
		}
		c.pl = pl
	}
	return c, nil
}

// defended picks the defended share of the population by a hash of the
// client index. sim draws the exact membership from its own stream; the
// probe only needs the same share.
func defended(sc sim.Scenario, i int) bool {
	if sc.Defense.Kind == "" {
		return false
	}
	if sc.Defense.Fraction >= 1 {
		return true
	}
	h := (uint64(i) + sc.Seed) * 0x9e3779b97f4a7c15
	h ^= h >> 31
	return float64(h%1_000_000)/1e6 < sc.Defense.Fraction
}

type probeClient struct {
	p     *probe
	id    string
	shard data.Dataset
	rng   *rand.Rand
	pl    *defense.Pipeline
}

func (c *probeClient) ID() string { return c.id }

// HandleRound is fl.LocalClient's single-step round with a timer around
// every call into another layer.
func (c *probeClient) HandleRound(_ context.Context, req fl.RoundRequest) (fl.Update, error) {
	start := time.Now()
	lt := c.p.lt
	if d := c.p.dispatched.Load(); d > 0 {
		lt.add("fl.client_wait", start.Sub(time.Unix(0, d)))
	}
	t := time.Now()
	net, err := fl.DecodeModel(req.Model)
	lt.since("fl.decode", t)
	if err != nil {
		return fl.Update{}, err
	}
	t = time.Now()
	batch, err := data.RandomBatch(c.shard, c.rng, min(c.p.in.sc.BatchSize, c.shard.Len()))
	lt.since("data.batch", t)
	if err != nil {
		return fl.Update{}, err
	}
	if c.p.attacking(req.Round) {
		c.p.mu.Lock()
		c.p.originals[captureKey(c.id, req.Round)] = batch.Clone().Images
		c.p.mu.Unlock()
	}
	if c.pl != nil {
		t = time.Now()
		batch = c.pl.ApplyBatch(batch)
		lt.since("defense.batch", t)
	}
	var x *tensor.Tensor
	if req.Model.InputKind == "flat" {
		x = batch.Flatten()
	} else {
		x = batch.Tensor4D()
	}
	net.ZeroGrad()
	for _, l := range net.Layers {
		t = time.Now()
		x = l.Forward(x, true)
		lt.since("nn."+l.Name()+".forward", t)
	}
	t = time.Now()
	loss, g := nn.SoftmaxCrossEntropy{}.Compute(x, batch.Labels)
	lt.since("nn.loss", t)
	for i := len(net.Layers) - 1; i >= 0; i-- {
		t = time.Now()
		g = net.Layers[i].Backward(g)
		lt.since("nn."+net.Layers[i].Name()+".backward", t)
	}
	t = time.Now()
	grads := net.Gradients()
	lt.since("nn.gradients", t)
	for _, p := range net.Params() {
		p.W.Release()
		p.G.Release()
	}
	if c.pl != nil {
		t = time.Now()
		c.pl.ApplyGrads(grads)
		lt.since("defense.grads", t)
	}
	lt.since("fl.client", start)
	return fl.Update{ClientID: c.id, Round: req.Round, Grads: grads, Loss: loss, BatchSize: batch.Size()}, nil
}

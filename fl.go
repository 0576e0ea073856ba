package oasis

import (
	"context"
	"fmt"
	rand "math/rand/v2"

	"github.com/oasisfl/oasis/internal/attack"
	"github.com/oasisfl/oasis/internal/data"
	"github.com/oasisfl/oasis/internal/dist"
	"github.com/oasisfl/oasis/internal/fl"
	"github.com/oasisfl/oasis/internal/nn"
	"github.com/oasisfl/oasis/internal/sim"
)

// Federated-learning surface: the protocol types a downstream user touches
// when simulating (or actually running) the paper's setting.
type (
	// FLServer coordinates rounds per §II-A of the paper.
	FLServer = fl.Server
	// FLServerConfig parametrizes rounds, client sampling and η.
	FLServerConfig = fl.ServerConfig
	// FLClient is one federated participant.
	FLClient = fl.Client
	// FLLocalClient is the standard client over a local data shard.
	FLLocalClient = fl.LocalClient
	// FLHistory traces a completed run.
	FLHistory = fl.History
	// FLUpdate is a client's uploaded gradient payload.
	FLUpdate = fl.Update
	// FLRoster is the population the server samples and leases each
	// round's cohort from (MemoryRoster, TCPServer, or your own).
	FLRoster = fl.Roster
	// FLAggregator folds one round's client updates into the applied
	// gradient (streaming Add/Finalize; see fl.Aggregator for the
	// contract). Assign to FLServer.Aggregator; nil means FedAvg mean.
	FLAggregator = fl.Aggregator
	// FLClientSampler draws each round's participant indices (uniform or
	// size-weighted; assign to FLServer.Sampler, nil means uniform).
	FLClientSampler = fl.IndexSampler
	// Partitioner is a policy that splits a dataset's index space into
	// disjoint client shards: IID, Dirichlet label skew, or quantity skew.
	// It is sealed to those built-in policies; get one from NewPartitioner.
	Partitioner = data.Partitioner
	// Scenario declaratively describes a full federated population:
	// size, partitioning, reliability, defenses, and attack schedule.
	Scenario = sim.Scenario
	// ScenarioReport is the structured, deterministic outcome of a
	// scenario run.
	ScenarioReport = sim.Report
	// ScenarioOptions tunes scenario execution (quick mode, workers).
	ScenarioOptions = sim.Options
	// MemoryRoster is the in-process transport.
	MemoryRoster = fl.MemoryRoster
	// TCPServer is the TCP/gob transport's listener side.
	TCPServer = fl.TCPServer
	// Attack is the common interface of every registered reconstruction
	// attack family (rtf, cah, qbi, loki, …); resolve one with NewAttack.
	Attack = attack.Attack
	// AttackConfig parametrizes registry attack calibration (dims, neuron
	// budget, probe data, anticipated batch).
	AttackConfig = attack.Config
	// DishonestServer plants malicious models and inverts updates; it
	// implements both server hooks of the threat model.
	DishonestServer = attack.DishonestServer
	// Capture is one reconstruction event observed by a dishonest server.
	Capture = attack.Capture
	// Model is a runnable network (the global model being trained).
	Model = nn.Sequential
)

// NewMemoryRoster creates the in-process client roster.
func NewMemoryRoster() *MemoryRoster { return fl.NewMemoryRoster() }

// SaveModel checkpoints a model (architecture + weights + normalization
// state) to disk; LoadModel restores a functionally identical network.
func SaveModel(model *Model, path string) error { return fl.SaveModel(model, path) }

// LoadModel restores a model saved with SaveModel.
func LoadModel(path string) (*Model, error) { return fl.LoadModel(path) }

// NewFLClient constructs a client over a dataset shard. Assign a defense
// pipeline to the client's Defense field to turn on OASIS ("oasis:MR"), a §V
// baseline ("dpsgd:1,0.1", "prune:0.3", "ats:MR"), or a chain of them.
func NewFLClient(name string, shard Dataset, batchSize int, rng *rand.Rand) *FLLocalClient {
	return fl.NewLocalClient(name, shard, batchSize, rng)
}

// NewFLServer builds a server over a global model and roster. Set
// cfg.Workers to bound the round engine's client concurrency (0 = NumCPU; 1
// = sequential) and assign server.Aggregator to change the aggregation
// policy — the History is bit-identical across worker counts for the same
// seed.
func NewFLServer(cfg FLServerConfig, model *Model, roster FLRoster) *FLServer {
	return fl.NewServer(cfg, model, roster)
}

// NewAggregator resolves an aggregation policy by name: "mean" (FedAvg,
// Eq. 1), "median" (coordinate-wise), "trimmed[:frac]" (coordinate-wise
// trimmed mean), or "normclip[:max]" (per-update L2 clipping before mean).
func NewAggregator(name string) (FLAggregator, error) {
	return fl.NewAggregatorByName(name)
}

// AggregatorNames lists the aggregation policies NewAggregator accepts.
func AggregatorNames() []string { return fl.AggregatorNames() }

// NewPartitioner resolves a data-partitioning policy from its spec: "iid",
// "dirichlet[:alpha]" (label skew), or "quantity[:sigma]" (size skew).
func NewPartitioner(spec string) (Partitioner, error) { return data.NewPartitioner(spec) }

// PartitionerNames lists the specs NewPartitioner accepts.
func PartitionerNames() []string { return data.PartitionerNames() }

// NewClientSampler resolves a client-sampling strategy by name: "uniform" or
// "size" (probability proportional to local dataset size).
func NewClientSampler(name string) (FLClientSampler, error) { return fl.NewSamplerByName(name) }

// ClientSamplerNames lists the strategies NewClientSampler accepts.
func ClientSamplerNames() []string { return fl.SamplerNames() }

// RunScenario materializes and executes a declarative FL scenario, returning
// its structured report. For a fixed seed the report is bit-identical across
// ScenarioOptions.Workers values.
func RunScenario(sc Scenario, opts ScenarioOptions) (*ScenarioReport, error) {
	return sim.Run(sc, opts)
}

// LoadScenario reads a JSON scenario spec (see internal/sim for the schema).
func LoadScenario(path string) (Scenario, error) { return sim.Load(path) }

// ScenarioPresets lists the named example scenarios (cross-device-1k,
// flaky-hospital, adversarial-burst, smoke).
func ScenarioPresets() []string { return sim.PresetNames() }

// PresetScenario returns a named preset scenario to run or customize.
func PresetScenario(name string) (Scenario, bool) { return sim.Preset(name) }

// ListenTCP starts a TCP roster on addr ("127.0.0.1:0" for an ephemeral
// port).
func ListenTCP(addr string) (*TCPServer, error) {
	return fl.ListenTCP(addr, fl.TCPServerOptions{})
}

// ServeTCP connects a client to a remote FL server and blocks until
// shutdown.
func ServeTCP(ctx context.Context, addr string, client FLClient) error {
	return fl.ServeTCP(ctx, addr, client)
}

// Distributed sweep surface: run one sweep grid across processes. The
// coordinator leases (cell, replicate) jobs to workers over TCP, re-leases
// on worker death or timeout, streams completed results to a JSONL
// checkpoint for crash/resume, and merges in deterministic grid order — the
// final SweepReport is byte-identical to an in-process RunSweep of the same
// config, regardless of worker count, join order, or resume history.
type (
	// SweepCoordinatorConfig shapes the serving side of a distributed
	// sweep: the grid, the listen address, the checkpoint path, and the
	// lease timeout.
	SweepCoordinatorConfig = dist.CoordinatorConfig
	// SweepWorkerConfig shapes one worker process: the coordinator address
	// and the deterministic dial/lease retry backoff.
	SweepWorkerConfig = dist.WorkerConfig
)

// RunSweepCoordinator serves a sweep grid to remote workers until every job
// completes (or ctx ends, returning the partial report with the context
// error), then merges and returns the deterministic report.
func RunSweepCoordinator(ctx context.Context, cfg SweepCoordinatorConfig) (*SweepReport, error) {
	return dist.RunCoordinator(ctx, cfg)
}

// RunSweepWorker dials a sweep coordinator and runs leased jobs until the
// grid completes (nil), ctx ends, or the bounded retry budget exhausts.
func RunSweepWorker(ctx context.Context, cfg SweepWorkerConfig) error {
	return dist.RunWorker(ctx, cfg)
}

// NewAttack calibrates a registered attack family by kind against a probe
// dataset: neurons sizes the planted layer and anticipatedBatch tunes bias
// placement (0 = default 8). Unknown kinds error with the list of registered
// families (AttackNames).
func NewAttack(kind string, ds Dataset, neurons, anticipatedBatch int, rng *rand.Rand) (Attack, error) {
	return attack.New(kind, attack.Config{
		Dims:    dims(ds),
		Classes: ds.NumClasses(),
		Neurons: neurons,
		Probe:   ds,
		Batch:   anticipatedBatch,
		Rng:     rng,
	})
}

// AttackNames lists the registered attack families NewAttack accepts.
func AttackNames() []string { return attack.Names() }

// RegisterAttack adds a custom attack family to the registry; it then
// becomes a valid scenario attack kind and sweep grid row.
func RegisterAttack(kind string, ctor func(AttackConfig) (Attack, error)) error {
	return attack.Register(kind, ctor)
}

// NewAttackServer wraps any calibrated registry attack as dishonest-server
// hooks (assign to FLServer.Modifier and FLServer.Observer).
func NewAttackServer(a Attack, rng *rand.Rand) (*DishonestServer, error) {
	return attack.NewAttackServer(a, rng)
}

// NewClassifier builds the ResNet-lite classifier used as the honest global
// model (width controls capacity; see nn.NewResNetLite).
func NewClassifier(ds Dataset, width int, rng *rand.Rand) *Model {
	c, _, _ := ds.Shape()
	return nn.NewResNetLite(nn.ResNetLiteConfig{
		InChannels: c, NumClasses: ds.NumClasses(), Width: width,
	}, rng)
}

// NewMLP builds a small fully-connected classifier (flat input), the model
// family the malicious layers of the attacks are planted in.
func NewMLP(ds Dataset, hidden int, rng *rand.Rand) *Model {
	c, h, w := ds.Shape()
	d := c * h * w
	return nn.NewSequential(
		nn.NewLinear("fc1", d, hidden, rng),
		nn.NewReLU("relu1"),
		nn.NewLinear("fc2", hidden, ds.NumClasses(), rng),
	)
}

// ShardDataset splits a dataset into n disjoint client shards covering every
// sample: near-equal sizes, with the first len%n shards one sample larger.
// It errors when n exceeds the dataset size (a zero-size shard cannot
// train).
func ShardDataset(ds Dataset, n int, rng *rand.Rand) ([]Dataset, error) {
	return PartitionDataset(ds, n, data.IID{}, rng)
}

// PartitionDataset splits a dataset into n client shards under a built-in
// partitioning policy — data.IID, data.Dirichlet{Alpha} label skew, or
// data.Quantity{Sigma} size skew, as NewPartitioner resolves them. Each
// shard is materialized from the same deferred partition the scenario
// engine draws.
func PartitionDataset(ds Dataset, n int, p Partitioner, rng *rand.Rand) ([]Dataset, error) {
	parts, err := data.PartitionLazy(p, ds, n, rng)
	if err != nil {
		return nil, err
	}
	out := make([]Dataset, parts.Shards())
	for k := range out {
		out[k] = data.NewSubset(ds, parts.Shard(k), fmt.Sprintf("%s-shard-%d", ds.Name(), k))
	}
	return out, nil
}

// TrainCentralized runs plain centralized training, the loop Table I and
// the DP ablation use: epochs over trainSet with Adam, each batch and its
// gradients passed through def (nil trains undefended) as on a federated
// client, returning test accuracy. Flat-input models (NewMLP) get flattened
// batches.
func TrainCentralized(model *Model, trainSet, testSet Dataset, def ClientDefense, epochs, batchSize int, rng *rand.Rand) (float64, error) {
	if _, err := fl.Train(model, trainSet, def, epochs, batchSize, rng); err != nil {
		return 0, err
	}
	return EvaluateAccuracy(model, testSet, batchSize)
}

// EvaluateAccuracy computes classification accuracy over a dataset in
// inference mode. An empty dataset is an error.
func EvaluateAccuracy(model *Model, testSet Dataset, batchSize int) (float64, error) {
	return fl.Evaluate(model, testSet, batchSize)
}

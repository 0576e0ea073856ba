package fl

import (
	"context"
	"fmt"
	rand "math/rand/v2"

	"github.com/oasisfl/oasis/internal/data"
	"github.com/oasisfl/oasis/internal/defense"
	"github.com/oasisfl/oasis/internal/nn"
	"github.com/oasisfl/oasis/internal/tensor"
)

// RoundRequest is the server→client message for one FL round.
type RoundRequest struct {
	Round int
	Model ModelSpec
}

// Update is the client→server payload: the local gradients of every model
// parameter in layer order, plus bookkeeping.
type Update struct {
	ClientID  string
	Round     int
	Grads     []*tensor.Tensor
	Loss      float64
	BatchSize int
}

// Client executes local training rounds.
//
// Concurrency contract: the server never calls HandleRound concurrently on
// the SAME Client — each client handles at most one in-flight round request.
// But when ServerConfig.Workers > 1 DIFFERENT clients run concurrently, so
// any state shared between client instances (a common *rand.Rand, a stateful
// defense stage such as DPSGD or ATS, a shared network connection) must
// either be synchronized or duplicated per client. State owned exclusively by
// one client needs no locking. An OASIS stage over a deterministic policy is
// pure and safe to share; one over a randomized policy draws from its
// policy's *rand.Rand on every batch and must be per-client. Datasets are
// read-only and safe to share.
type Client interface {
	ID() string
	HandleRound(ctx context.Context, req RoundRequest) (Update, error)
}

// LocalClient is the standard client: it owns a data shard, samples one
// batch per round, runs it through its defense, and returns the gradients an
// honest participant would upload.
//
// Setting LocalSteps > 1 switches the client to FedAvg-style local training:
// it runs that many SGD steps (learning rate LocalLR, fresh defended batch
// per step) and uploads the pseudo-gradient (w₀ − w_k)/LocalLR, which the
// server aggregates exactly like a plain gradient. The reconstruction
// attacks still apply — the first local step's gradient dominates the
// malicious layer's pseudo-gradient — so OASIS matters in this mode too.
//
// A LocalClient satisfies the Client concurrency contract as long as Rng and
// any stateful Defense stage are not shared with other clients: Shard is
// only read, and a deterministic-policy OASIS stage is pure.
type LocalClient struct {
	Name      string
	Shard     data.Dataset
	BatchSize int
	// Defense, when set, rewrites every local batch before the forward pass
	// (ApplyBatch) and transforms the gradients before upload (ApplyGrads):
	// OASIS, the §V baselines, or a pipeline of them. Nil trains undefended.
	Defense defense.Defense
	Loss    nn.Loss
	Rng     *rand.Rand

	LocalSteps int     // ≤ 1 means single-gradient FedSGD (the paper's setting)
	LocalLR    float64 // learning rate for local steps; 0 means 0.01
}

var _ Client = (*LocalClient)(nil)

// NewLocalClient constructs a client over a data shard.
func NewLocalClient(name string, shard data.Dataset, batchSize int, rng *rand.Rand) *LocalClient {
	return &LocalClient{
		Name:      name,
		Shard:     shard,
		BatchSize: batchSize,
		Loss:      nn.SoftmaxCrossEntropy{},
		Rng:       rng,
	}
}

// ID returns the client identifier.
func (c *LocalClient) ID() string { return c.Name }

// NumSamples reports the local shard size (SizedClient, for size-weighted
// client sampling).
func (c *LocalClient) NumSamples() int { return c.Shard.Len() }

// HandleRound materializes the dispatched model, computes gradients (or a
// FedAvg pseudo-gradient) on fresh local batches and returns the update.
func (c *LocalClient) HandleRound(ctx context.Context, req RoundRequest) (Update, error) {
	if err := ctx.Err(); err != nil {
		return Update{}, fmt.Errorf("fl: client %s round %d: %w", c.Name, req.Round, err)
	}
	net, err := DecodeModel(req.Model)
	if err != nil {
		return Update{}, fmt.Errorf("fl: client %s: %w", c.Name, err)
	}
	steps := c.LocalSteps
	if steps < 1 {
		steps = 1
	}
	var initial []*tensor.Tensor
	lr := c.LocalLR
	if steps > 1 {
		if lr == 0 {
			lr = 0.01
		}
		initial = net.Weights()
	}

	lossSum := 0.0
	lastBatch := 0
	for step := 0; step < steps; step++ {
		loss, batchSize, err := c.localStep(net, req.Model.InputKind)
		if err != nil {
			return Update{}, err
		}
		lossSum += loss
		lastBatch = batchSize
		if steps > 1 {
			// Apply the local SGD step; the pseudo-gradient is formed
			// from the cumulative weight displacement below.
			for _, p := range net.Params() {
				p.W.AddScaledInPlace(-lr, p.G)
			}
		}
	}
	// The decoded model is round-local and its buffers come from the arena,
	// so they feed the next cohort member instead of the collector. The
	// upload is either the gradient buffers themselves (one step) or the
	// initial-weight snapshots turned into (w₀ − w_k)/lr in place; the
	// server releases it after aggregation.
	params := net.Params()
	grads := make([]*tensor.Tensor, len(params))
	for i, p := range params {
		if steps > 1 {
			grads[i] = initial[i].AddScaledInPlace(-1, p.W).ScaleInPlace(1 / lr)
			p.G.Release()
		} else {
			grads[i] = p.G
		}
		p.W.Release()
	}
	if c.Defense != nil {
		c.Defense.ApplyGrads(grads)
	}
	return Update{
		ClientID:  c.Name,
		Round:     req.Round,
		Grads:     grads,
		Loss:      lossSum / float64(steps),
		BatchSize: lastBatch,
	}, nil
}

// localStep draws one defended batch and runs forward/backward, leaving the
// gradients accumulated on the network parameters.
func (c *LocalClient) localStep(net *nn.Sequential, inputKind string) (loss float64, batchSize int, err error) {
	batch, err := data.RandomBatch(c.Shard, c.Rng, min(c.BatchSize, c.Shard.Len()))
	if err != nil {
		return 0, 0, fmt.Errorf("fl: client %s: %w", c.Name, err)
	}
	if c.Defense != nil {
		batch = c.Defense.ApplyBatch(batch)
	}
	var x *tensor.Tensor
	switch inputKind {
	case "flat":
		x = batch.Flatten()
	case "image", "":
		x = batch.Tensor4D()
	default:
		return 0, 0, fmt.Errorf("fl: client %s: unknown input kind %q", c.Name, inputKind)
	}
	net.ZeroGrad()
	logits := net.Forward(x, true)
	loss, g := c.Loss.Compute(logits, batch.Labels)
	net.Backward(g)
	return loss, batch.Size(), nil
}

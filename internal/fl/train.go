package fl

import (
	"fmt"
	rand "math/rand/v2"

	"github.com/oasisfl/oasis/internal/data"
	"github.com/oasisfl/oasis/internal/defense"
	"github.com/oasisfl/oasis/internal/nn"
	"github.com/oasisfl/oasis/internal/opt"
	"github.com/oasisfl/oasis/internal/tensor"
)

// Train runs plain centralized training: epochs over trainSet in a fresh
// rng.Perm order, full batches of batchSize only (a trailing partial batch
// is dropped), Adam (lr 1e-3, weight decay 1e-4, the paper's optimizer) on
// softmax cross-entropy. A non-nil def acts as it does on a LocalClient:
// ApplyBatch rewrites every batch before the forward pass and ApplyGrads
// transforms the parameter gradients before each optimizer step. It returns
// the mean training loss of the last epoch.
func Train(net *nn.Sequential, trainSet data.Dataset, def defense.Defense, epochs, batchSize int, rng *rand.Rand) (float64, error) {
	kind := inputKind(net)
	optimizer := opt.NewAdam(1e-3, 1e-4)
	lossFn := nn.SoftmaxCrossEntropy{}
	params := net.Params()
	grads := make([]*tensor.Tensor, len(params))
	for i, p := range params {
		grads[i] = p.G
	}
	lastLoss := 0.0
	n := trainSet.Len()
	for ep := 0; ep < epochs; ep++ {
		perm := rng.Perm(n)
		epochLoss, steps := 0.0, 0
		for off := 0; off+batchSize <= n; off += batchSize {
			batch, err := data.TakeBatch(trainSet, perm[off:off+batchSize])
			if err != nil {
				return 0, err
			}
			if def != nil {
				batch = def.ApplyBatch(batch)
			}
			x, err := batchInput(batch, kind)
			if err != nil {
				return 0, err
			}
			net.ZeroGrad()
			loss, g := lossFn.Compute(net.Forward(x, true), batch.Labels)
			net.Backward(g)
			if def != nil {
				def.ApplyGrads(grads)
			}
			optimizer.Step(params)
			epochLoss += loss
			steps++
		}
		if steps > 0 {
			lastLoss = epochLoss / float64(steps)
		}
	}
	return lastLoss, nil
}

// Evaluate measures classification accuracy over the whole dataset in
// inference mode, batchSize samples at a time in index order. An empty
// dataset has no accuracy and is an error.
func Evaluate(net *nn.Sequential, ds data.Dataset, batchSize int) (float64, error) {
	if ds.Len() == 0 {
		return 0, fmt.Errorf("fl: evaluate on empty dataset %s", ds.Name())
	}
	kind := inputKind(net)
	correct := 0.0
	for off := 0; off < ds.Len(); off += batchSize {
		end := min(off+batchSize, ds.Len())
		idx := make([]int, 0, end-off)
		for i := off; i < end; i++ {
			idx = append(idx, i)
		}
		batch, err := data.TakeBatch(ds, idx)
		if err != nil {
			return 0, err
		}
		x, err := batchInput(batch, kind)
		if err != nil {
			return 0, err
		}
		correct += nn.Accuracy(net.Forward(x, false), batch.Labels) * float64(batch.Size())
	}
	return correct / float64(ds.Len()), nil
}

// inputKind is the one input-shape rule: a network whose first layer is
// fully connected takes flat [B, C·H·W] input, any other takes [B,C,H,W].
func inputKind(net *nn.Sequential) string {
	if len(net.Layers) > 0 {
		if _, ok := net.Layers[0].(*nn.Linear); ok {
			return "flat"
		}
	}
	return "image"
}

// batchInput shapes a batch for a network of the given input kind. The
// kind may come from a peer's ModelSpec, so an unknown one is an error
// (callers add the package and client context); an empty kind means image.
func batchInput(b *data.Batch, kind string) (*tensor.Tensor, error) {
	switch kind {
	case "flat":
		return b.Flatten(), nil
	case "image", "":
		return b.Tensor4D(), nil
	default:
		return nil, fmt.Errorf("unknown input kind %q", kind)
	}
}

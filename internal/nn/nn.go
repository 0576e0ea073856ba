// Package nn is the deep-learning substrate of this repository: a layer
// graph with hand-written forward/backward passes over internal/tensor.
//
// The package exists because the gradient-inversion attacks reproduced here
// (RTF, CAH, single-layer inversion) operate on exact analytic gradients of
// model parameters; any correct backprop engine produces the same float64
// gradients, so a small dedicated engine is a faithful substitute for the
// PyTorch stack the paper used. Every layer is covered by numerical gradient
// checks in the test suite.
//
// Layers are stateful: Forward caches the activations Backward needs, so a
// single layer instance must not be shared across concurrent passes. Networks
// are cheap to clone for parallel workers via Sequential.Clone.
package nn

import (
	"fmt"
	"math"
	rand "math/rand/v2"

	"github.com/oasisfl/oasis/internal/tensor"
)

// Param is a named learnable parameter with its accumulated gradient.
type Param struct {
	Name string
	W    *tensor.Tensor // value
	G    *tensor.Tensor // gradient of the loss w.r.t. W, same shape
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.G.Zero() }

// Layer is one differentiable stage of a network.
type Layer interface {
	// Forward computes the layer output for x. When train is false the
	// layer may skip bookkeeping needed only by Backward (and layers such
	// as batch norm use their inference statistics).
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	// Backward consumes the gradient w.r.t. the layer output and returns
	// the gradient w.r.t. the layer input, accumulating parameter
	// gradients as a side effect. It must be called after a
	// Forward(…, true) with the matching input. Sequential.Backward does
	// not call it on a network's first layer when that layer can
	// accumulate its parameter gradients alone (Linear, Conv2D); chain
	// Backward over every layer to get the input gradient.
	Backward(gradOut *tensor.Tensor) *tensor.Tensor
	// Params returns the layer's learnable parameters (possibly empty).
	Params() []*Param
	// Clone returns an independent copy of the layer with copied weights
	// and fresh (zero) gradients and caches.
	Clone() Layer
	// Name identifies the layer for diagnostics and parameter naming.
	Name() string
}

// Sequential chains layers; it is itself not a Layer so that it can own
// network-level helpers (parameter flattening, gradient vectors).
type Sequential struct {
	Layers []Layer
}

// NewSequential builds a network from the given layers.
func NewSequential(layers ...Layer) *Sequential {
	return &Sequential{Layers: layers}
}

// Forward runs all layers in order.
func (s *Sequential) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range s.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// paramGrader is implemented by layers that can accumulate their parameter
// gradients without forming the gradient w.r.t. their input, which for the
// first layer of a network nobody reads.
type paramGrader interface {
	backwardParams(gradOut *tensor.Tensor)
}

// Backward propagates gradOut through all layers in reverse, accumulating
// every parameter gradient. The first layer's input gradient is not formed
// when that layer is a paramGrader: for a first Linear it is a full
// [B,out]·[out,in] product that no caller reads. CheckGradients chains
// Layer.Backward itself when it needs the input gradient.
func (s *Sequential) Backward(gradOut *tensor.Tensor) {
	if len(s.Layers) == 0 {
		return
	}
	for i := len(s.Layers) - 1; i > 0; i-- {
		gradOut = s.Layers[i].Backward(gradOut)
	}
	if first, ok := s.Layers[0].(paramGrader); ok {
		first.backwardParams(gradOut)
		return
	}
	s.Layers[0].Backward(gradOut)
}

// Params returns all learnable parameters in layer order.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// ZeroGrad clears every parameter gradient.
func (s *Sequential) ZeroGrad() {
	for _, p := range s.Params() {
		p.ZeroGrad()
	}
}

// Clone deep-copies the network (weights copied, gradients zeroed).
func (s *Sequential) Clone() *Sequential {
	out := &Sequential{Layers: make([]Layer, len(s.Layers))}
	for i, l := range s.Layers {
		out.Layers[i] = l.Clone()
	}
	return out
}

// NumParams returns the total number of scalar parameters.
func (s *Sequential) NumParams() int {
	n := 0
	for _, p := range s.Params() {
		n += p.W.Len()
	}
	return n
}

// Gradients returns deep copies of all parameter gradients in layer order,
// for a caller that keeps using the network afterwards. The copies are
// pool-backed: a caller done with one may Release it, and one that never
// does simply leaves it to the collector. A caller that discards the network
// (fl.LocalClient) uploads the Param.G tensors themselves instead.
func (s *Sequential) Gradients() []*tensor.Tensor {
	ps := s.Params()
	out := make([]*tensor.Tensor, len(ps))
	for i, p := range ps {
		out[i] = p.G.ClonePooled()
	}
	return out
}

// SetWeights copies the given tensors into the network parameters. The slice
// must match Params() in length and per-entry shape.
func (s *Sequential) SetWeights(ws []*tensor.Tensor) error {
	ps := s.Params()
	if len(ws) != len(ps) {
		return fmt.Errorf("nn: SetWeights got %d tensors, network has %d params", len(ws), len(ps))
	}
	for i, p := range ps {
		if !p.W.SameShape(ws[i]) {
			return fmt.Errorf("nn: SetWeights param %q shape %v != %v", p.Name, p.W.Shape(), ws[i].Shape())
		}
		copy(p.W.Data(), ws[i].Data())
	}
	return nil
}

// Weights returns deep copies of all parameter values in layer order,
// pool-backed like Gradients.
func (s *Sequential) Weights() []*tensor.Tensor {
	ps := s.Params()
	out := make([]*tensor.Tensor, len(ps))
	for i, p := range ps {
		out[i] = p.W.ClonePooled()
	}
	return out
}

// heStd returns the He-initialization standard deviation for fanIn inputs.
func heStd(fanIn int) float64 {
	return math.Sqrt(2.0 / float64(fanIn))
}

// xavierStd returns the Xavier/Glorot standard deviation.
func xavierStd(fanIn, fanOut int) float64 {
	return math.Sqrt(2.0 / float64(fanIn+fanOut))
}

// RandSource derives a deterministic *rand.Rand from a pair of seeds. All
// stochastic components in this repository thread seeds explicitly so every
// experiment is reproducible.
func RandSource(seed1, seed2 uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed1, seed2))
}

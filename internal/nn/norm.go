package nn

import (
	"fmt"
	"math"

	"github.com/oasisfl/oasis/internal/tensor"
)

// BatchNorm2D normalizes [B, C, H, W] activations per channel with learnable
// scale (gamma) and shift (beta), tracking running statistics for inference.
type BatchNorm2D struct {
	C        int
	Eps      float64
	Momentum float64
	Gamma    *Param
	Beta     *Param

	RunningMean []float64
	RunningVar  []float64

	// caches for Backward
	lastXHat *tensor.Tensor
	lastStd  []float64
	name     string
}

var _ Layer = (*BatchNorm2D)(nil)

// NewBatchNorm2D constructs a batch-norm layer for c channels.
func NewBatchNorm2D(name string, c int) *BatchNorm2D {
	g := tensor.New(c)
	g.Fill(1)
	bn, err := NewBatchNorm2DFrom(name, g, tensor.New(c))
	if err != nil {
		panic(err) // unreachable: gamma and beta are both [c]
	}
	return bn
}

// NewBatchNorm2DFrom constructs a batch-norm layer with explicit scale gamma
// [C] and shift beta [C]; used by model decoding. The running statistics
// start at mean 0 and variance 1. Like NewLinearFrom it takes ownership of
// gamma and beta and draws the gradients from the workspace arena.
func NewBatchNorm2DFrom(name string, gamma, beta *tensor.Tensor) (*BatchNorm2D, error) {
	if gamma.Dims() != 1 || !gamma.SameShape(beta) {
		return nil, fmt.Errorf("nn: batchnorm gamma %v and beta %v must be the same 1-D shape", gamma.Shape(), beta.Shape())
	}
	c := gamma.Dim(0)
	rv := make([]float64, c)
	for i := range rv {
		rv[i] = 1
	}
	return &BatchNorm2D{
		C: c, Eps: 1e-5, Momentum: 0.1,
		Gamma:       &Param{Name: name + ".gamma", W: gamma, G: tensor.NewPooled(c)},
		Beta:        &Param{Name: name + ".beta", W: beta, G: tensor.NewPooled(c)},
		RunningMean: make([]float64, c),
		RunningVar:  rv,
		name:        name,
	}, nil
}

// Forward normalizes per channel. In training mode it uses batch statistics
// and updates the running estimates; in inference mode it uses the running
// estimates.
func (bn *BatchNorm2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Dims() != 4 || x.Dim(1) != bn.C {
		panic(fmt.Sprintf("nn: %s expects [B,%d,H,W], got %v", bn.name, bn.C, x.Shape()))
	}
	b, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	n := float64(b * h * w)
	out := tensor.New(b, bn.C, h, w)
	xd, od := x.Data(), out.Data()
	gamma, beta := bn.Gamma.W.Data(), bn.Beta.W.Data()

	if train {
		xhat := tensor.New(b, bn.C, h, w)
		xh := xhat.Data()
		stds := make([]float64, bn.C)
		for ci := 0; ci < bn.C; ci++ {
			mean, varr := bn.channelStats(xd, b, ci, h, w, n)
			std := math.Sqrt(varr + bn.Eps)
			stds[ci] = std
			bn.RunningMean[ci] = (1-bn.Momentum)*bn.RunningMean[ci] + bn.Momentum*mean
			bn.RunningVar[ci] = (1-bn.Momentum)*bn.RunningVar[ci] + bn.Momentum*varr
			for bi := 0; bi < b; bi++ {
				base := ((bi * bn.C) + ci) * h * w
				for i := 0; i < h*w; i++ {
					v := (xd[base+i] - mean) / std
					xh[base+i] = v
					od[base+i] = gamma[ci]*v + beta[ci]
				}
			}
		}
		bn.lastXHat = xhat
		bn.lastStd = stds
		return out
	}
	for ci := 0; ci < bn.C; ci++ {
		std := math.Sqrt(bn.RunningVar[ci] + bn.Eps)
		mean := bn.RunningMean[ci]
		for bi := 0; bi < b; bi++ {
			base := ((bi * bn.C) + ci) * h * w
			for i := 0; i < h*w; i++ {
				od[base+i] = gamma[ci]*(xd[base+i]-mean)/std + beta[ci]
			}
		}
	}
	return out
}

func (bn *BatchNorm2D) channelStats(xd []float64, b, ci, h, w int, n float64) (mean, varr float64) {
	s := 0.0
	for bi := 0; bi < b; bi++ {
		base := ((bi * bn.C) + ci) * h * w
		for i := 0; i < h*w; i++ {
			s += xd[base+i]
		}
	}
	mean = s / n
	v := 0.0
	for bi := 0; bi < b; bi++ {
		base := ((bi * bn.C) + ci) * h * w
		for i := 0; i < h*w; i++ {
			d := xd[base+i] - mean
			v += d * d
		}
	}
	return mean, v / n
}

// Backward implements the full batch-norm gradient (including the dependence
// of batch statistics on the input).
func (bn *BatchNorm2D) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if bn.lastXHat == nil {
		panic(fmt.Sprintf("nn: %s Backward before Forward(train)", bn.name))
	}
	b, h, w := gradOut.Dim(0), gradOut.Dim(2), gradOut.Dim(3)
	n := float64(b * h * w)
	gd := gradOut.Data()
	xh := bn.lastXHat.Data()
	gamma := bn.Gamma.W.Data()
	gGamma, gBeta := bn.Gamma.G.Data(), bn.Beta.G.Data()
	out := tensor.New(b, bn.C, h, w)
	od := out.Data()
	for ci := 0; ci < bn.C; ci++ {
		sumG, sumGX := 0.0, 0.0
		for bi := 0; bi < b; bi++ {
			base := ((bi * bn.C) + ci) * h * w
			for i := 0; i < h*w; i++ {
				g := gd[base+i]
				sumG += g
				sumGX += g * xh[base+i]
			}
		}
		gGamma[ci] += sumGX
		gBeta[ci] += sumG
		inv := gamma[ci] / (n * bn.lastStd[ci])
		for bi := 0; bi < b; bi++ {
			base := ((bi * bn.C) + ci) * h * w
			for i := 0; i < h*w; i++ {
				od[base+i] = inv * (n*gd[base+i] - sumG - xh[base+i]*sumGX)
			}
		}
	}
	return out
}

// Params returns gamma and beta.
func (bn *BatchNorm2D) Params() []*Param { return []*Param{bn.Gamma, bn.Beta} }

// Clone returns a deep copy with zeroed gradients and copied running stats.
func (bn *BatchNorm2D) Clone() Layer {
	c := NewBatchNorm2D(bn.name, bn.C)
	copy(c.Gamma.W.Data(), bn.Gamma.W.Data())
	copy(c.Beta.W.Data(), bn.Beta.W.Data())
	copy(c.RunningMean, bn.RunningMean)
	copy(c.RunningVar, bn.RunningVar)
	c.Eps, c.Momentum = bn.Eps, bn.Momentum
	return c
}

// Name returns the layer name.
func (bn *BatchNorm2D) Name() string { return bn.name }

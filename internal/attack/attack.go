package attack

import (
	"fmt"
	"math"
	rand "math/rand/v2"

	"github.com/oasisfl/oasis/internal/data"
	"github.com/oasisfl/oasis/internal/imaging"
	"github.com/oasisfl/oasis/internal/nn"
	"github.com/oasisfl/oasis/internal/tensor"
)

// ImageDims carries the raster geometry needed to fold flat gradient rows
// back into images.
type ImageDims struct {
	C, H, W int
}

// Dim returns the flattened input dimensionality C*H*W.
func (d ImageDims) Dim() int { return d.C * d.H * d.W }

// Victim is the model a dishonest server hands to a client: a malicious
// fully-connected layer placed directly after the input (the strongest
// placement per the paper's threat model), a ReLU, and a benign
// classification head.
type Victim struct {
	Net     *nn.Sequential
	Mal     *nn.Linear
	Dims    ImageDims
	Classes int
}

// NewVictim assembles a victim model around a planted malicious layer
// (W [n×d], b [n]), which takes ownership of w and b. The head is built with identical columns so that
// ∂L/∂z_i is the same for every neuron i of one sample — the construction
// both published attacks use so that per-neuron gradient arithmetic isolates
// samples cleanly.
func NewVictim(dims ImageDims, classes int, w, b *tensor.Tensor, rng *rand.Rand) (*Victim, error) {
	return NewVictimGain(dims, classes, w, b, rng, 1)
}

// NewVictimGain is NewVictim with an explicit head gain. Gain multiplies the
// head columns, which scales ∂L/∂z_i — and therefore the malicious layer's
// share of the (clipped) gradient norm — without changing the inversion
// arithmetic (Eq. 6 ratios are scale-invariant). A dishonest server raises
// the gain to survive DP-style gradient noise; the dp ablation quantifies
// this arms race.
func NewVictimGain(dims ImageDims, classes int, w, b *tensor.Tensor, rng *rand.Rand, gain float64) (*Victim, error) {
	if w.Dim(1) != dims.Dim() {
		return nil, fmt.Errorf("attack: malicious layer width %d != input dim %d", w.Dim(1), dims.Dim())
	}
	if gain <= 0 {
		return nil, fmt.Errorf("attack: head gain %g must be positive", gain)
	}
	n := w.Dim(0)
	mal, err := nn.NewLinearFrom("malicious", w, b)
	if err != nil {
		return nil, fmt.Errorf("attack: %w", err)
	}
	// Head with identical columns: headW[k][i] = gain·v[k]/n.
	headW := tensor.New(classes, n)
	for k := 0; k < classes; k++ {
		v := rng.NormFloat64() * gain
		row := headW.RowView(k)
		for i := range row {
			row[i] = v / float64(n)
		}
	}
	head, err := nn.NewLinearFrom("head", headW, tensor.New(classes))
	if err != nil {
		return nil, fmt.Errorf("attack: %w", err)
	}
	return &Victim{
		Net:     nn.NewSequential(mal, nn.NewReLU("malicious.relu"), head),
		Mal:     mal,
		Dims:    dims,
		Classes: classes,
	}, nil
}

// Gradients runs one local training step on the batch exactly as an honest
// FL client would and returns the malicious layer's weight and bias
// gradients — the payload the dishonest server inverts. The returned loss is
// the client's training loss.
func (v *Victim) Gradients(b *data.Batch) (gw, gb *tensor.Tensor, loss float64) {
	v.Net.ZeroGrad()
	x := b.Flatten()
	logits := v.Net.Forward(x, true)
	loss, g := nn.SoftmaxCrossEntropy{}.Compute(logits, b.Labels)
	v.Net.Backward(g)
	return v.Mal.Weight.G.Clone(), v.Mal.Bias.G.Clone(), loss
}

// VectorToImage folds a flat reconstruction vector into a clamped image.
func VectorToImage(vec []float64, dims ImageDims) (*imaging.Image, error) {
	im, err := imaging.FromVector(vec, dims.C, dims.H, dims.W)
	if err != nil {
		return nil, err
	}
	return im.Clamp(), nil
}

// gradEps is the threshold below which a bias gradient is treated as zero
// (no sample activated the neuron/bin).
const gradEps = 1e-12

// DedupeReconstructions drops reconstructions that are near-duplicates
// (MSE below tol) of an earlier one; trap-weight attacks frequently recover
// the same sample through several neurons.
func DedupeReconstructions(recons []*imaging.Image, tol float64) []*imaging.Image {
	var out []*imaging.Image
	for _, r := range recons {
		dup := false
		for _, seen := range out {
			if imaging.MSE(r, seen) < tol {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, r)
		}
	}
	return out
}

// Evaluation summarizes attack success against the original (pre-defense)
// batch, following the paper's protocol: each reconstruction is matched to
// its best-PSNR original.
type Evaluation struct {
	// PSNRs holds one entry per reconstruction: the PSNR against its
	// best-matching original.
	PSNRs []float64
	// PerOriginalBest holds, for every original image, the best PSNR any
	// reconstruction achieved against it (0 when nothing matched).
	PerOriginalBest []float64
	// NumReconstructions is len(PSNRs).
	NumReconstructions int
}

// MeanPSNR is the paper's headline metric: the average PSNR over the images
// reconstructed by the attack. It returns 0 when nothing was reconstructed.
func (e Evaluation) MeanPSNR() float64 {
	if len(e.PSNRs) == 0 {
		return 0
	}
	s := 0.0
	for _, p := range e.PSNRs {
		s += p
	}
	return s / float64(len(e.PSNRs))
}

// MaxPSNR returns the single best reconstruction quality — the worst-case
// privacy leak.
func (e Evaluation) MaxPSNR() float64 {
	m := 0.0
	for _, p := range e.PSNRs {
		if p > m {
			m = p
		}
	}
	return m
}

// Evaluate matches reconstructions against originals and computes PSNRs.
func Evaluate(recons []*imaging.Image, originals []*imaging.Image) Evaluation {
	ev := Evaluation{
		PerOriginalBest:    make([]float64, len(originals)),
		NumReconstructions: len(recons),
	}
	for _, r := range recons {
		idx, p := imaging.BestMatch(r, originals)
		ev.PSNRs = append(ev.PSNRs, p)
		if idx >= 0 && p > ev.PerOriginalBest[idx] {
			ev.PerOriginalBest[idx] = p
		}
	}
	return ev
}

// Attack is a calibrated planted-layer attack: the malicious layer (W [n×d],
// b [n]) a dishonest server plants right after the input, and the inversion
// that turns the layer's uploaded gradients back into images. Every
// registered family is this one type; the families differ only in where
// their calibration places the weights and biases (see the package doc).
type Attack struct {
	// Kind is the registry kind ("rtf", "cah", "qbi", "loki", …).
	Kind string
	// Classes is the width of the victim's classification head.
	Classes int

	w, b *tensor.Tensor
	// inversion supplies the exported Dims, Neurons and Bins fields and
	// Reconstruct.
	inversion
}

// inversion is the gradient arithmetic of one calibrated layer. Neurons come
// in runs of Bins neurons with ascending thresholds: a sample fires a prefix
// of every run, so adjacent-bin differences isolate the samples in one bin
// and the last neuron of a run is the open top bin. Bins = 1 makes every
// neuron its own top bin, which is the per-neuron Eq. 6.
type inversion struct {
	// Dims is the raster geometry of the inputs the layer sees.
	Dims ImageDims
	// Neurons is the width n of the planted layer, a multiple of Bins.
	Neurons int
	// Bins is the length of each run of ascending-threshold neurons.
	Bins int

	dedupe bool // drop near-duplicate reconstructions across neurons
}

// Name returns the registry kind.
func (a *Attack) Name() string { return a.Kind }

// Layer returns copies of the malicious parameters.
func (a *Attack) Layer() (w, b *tensor.Tensor) { return a.w.Clone(), a.b.Clone() }

// BuildVictim assembles the full malicious model the server would dispatch.
func (a *Attack) BuildVictim(rng *rand.Rand) (*Victim, error) {
	w, b := a.Layer()
	return NewVictim(a.Dims, a.Classes, w, b, rng)
}

// Run executes the complete attack against a (possibly defended) batch: the
// victim model is built, client gradients are computed on clientBatch, and
// the reconstructions are evaluated against originals — the paper's
// measurement loop for Figures 3–6.
func (a *Attack) Run(clientBatch *data.Batch, originals []*imaging.Image, rng *rand.Rand) (Evaluation, []*imaging.Image, error) {
	victim, err := a.BuildVictim(rng)
	if err != nil {
		return Evaluation{}, nil, err
	}
	gw, gb, _ := victim.Gradients(clientBatch)
	recons := a.Reconstruct(gw, gb)
	return Evaluate(recons, originals), recons, nil
}

// Slice derives a smaller attack using the first n neurons. Per-neuron
// layers (Bins = 1) have i.i.d. rows, so the prefix of a calibrated layer is
// itself a calibrated layer; neuron-count sweeps (Figure 4) reuse one
// expensive calibration. Binned layers have no such prefix.
func (a *Attack) Slice(n int) (*Attack, error) {
	if a.Bins != 1 {
		return nil, fmt.Errorf("attack: %s bins %d neurons together and cannot be sliced", a.Kind, a.Bins)
	}
	if n < 1 || n > a.Neurons {
		return nil, fmt.Errorf("attack: %s slice %d outside [1,%d]", a.Kind, n, a.Neurons)
	}
	d := a.Dims.Dim()
	w := tensor.New(n, d)
	copy(w.Data(), a.w.Data()[:n*d])
	b := tensor.New(n)
	copy(b.Data(), a.b.Data()[:n])
	s := *a
	s.w, s.b, s.Neurons = w, b, n
	return &s, nil
}

// fits reports whether (gw, gb) has exactly the planted layer's shape (and
// the layer is one Reconstruct can walk).
func (v inversion) fits(gw, gb *tensor.Tensor) bool {
	return v.Bins > 0 && gw.Dims() == 2 && gb.Dims() == 1 &&
		gw.Dim(0) == v.Neurons && gb.Dim(0) == v.Neurons && gw.Dim(1) == v.Dims.Dim()
}

// Reconstruct inverts the planted layer's uploaded gradients (gw [n×d],
// gb [n]) into images: within every run of Bins neurons, adjacent-bin
// differences
//
//	x̂ = (∂W_i − ∂W_{i+1}) / (∂b_i − ∂b_{i+1})
//
// invert the samples of bin i, and the run's last neuron inverts the open
// top bin. Each is a verbatim copy when its bin holds a single sample.
func (v inversion) Reconstruct(gw, gb *tensor.Tensor) []*imaging.Image {
	if !v.fits(gw, gb) {
		panic(fmt.Sprintf("attack: gradients %v/%v do not fit %d neurons over %d inputs",
			gw.Shape(), gb.Shape(), v.Neurons, v.Dims.Dim()))
	}
	var out []*imaging.Image
	gbd := gb.Data()
	var diff []float64
	if v.Bins > 1 {
		diff = make([]float64, v.Dims.Dim())
	}
	for top := v.Bins - 1; top < v.Neurons; top += v.Bins {
		for i := top - v.Bins + 1; i < top; i++ {
			rowI, rowN := gw.RowView(i), gw.RowView(i+1)
			for k := range diff {
				diff[k] = rowI[k] - rowN[k]
			}
			if im, ok := ratioReconstruct(diff, gbd[i]-gbd[i+1], v.Dims); ok {
				out = append(out, im)
			}
		}
		if im, ok := ratioReconstruct(gw.RowView(top), gbd[top], v.Dims); ok {
			out = append(out, im)
		}
	}
	if v.dedupe {
		return DedupeReconstructions(out, 1e-8)
	}
	return out
}

// ratioReconstruct converts a (row of ∂W, scalar ∂b) pair into an image when
// the bias gradient is usable.
func ratioReconstruct(gwRow []float64, gb float64, dims ImageDims) (*imaging.Image, bool) {
	if math.Abs(gb) < gradEps {
		return nil, false
	}
	vec := make([]float64, len(gwRow))
	inv := 1 / gb
	for i, v := range gwRow {
		vec[i] = v * inv
	}
	im, err := VectorToImage(vec, dims)
	if err != nil {
		return nil, false
	}
	return im, true
}

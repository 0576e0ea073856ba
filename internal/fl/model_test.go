package fl

import (
	"testing"

	"github.com/oasisfl/oasis/internal/nn"
	"github.com/oasisfl/oasis/internal/tensor"
)

func randInput(rng interface{ NormFloat64() float64 }, shape ...int) *tensor.Tensor {
	x := tensor.New(shape...)
	d := x.Data()
	for i := range d {
		d[i] = rng.NormFloat64()
	}
	return x
}

// TestModelSpecRoundTripMLP checks that an encoded model decodes to a
// functionally identical network.
func TestModelSpecRoundTripMLP(t *testing.T) {
	rng := nn.RandSource(1, 1)
	net := nn.NewSequential(
		nn.NewLinear("fc1", 6, 8, rng),
		nn.NewReLU("relu"),
		nn.NewLinear("fc2", 8, 4, rng),
	)
	spec, err := EncodeModel(net)
	if err != nil {
		t.Fatal(err)
	}
	if spec.InputKind != "flat" {
		t.Errorf("InputKind = %q, want flat", spec.InputKind)
	}
	back, err := DecodeModel(spec)
	if err != nil {
		t.Fatal(err)
	}
	x := randInput(rng, 3, 6)
	if !net.Forward(x, false).EqualApprox(back.Forward(x, false), 1e-12) {
		t.Error("decoded MLP differs from original")
	}
}

// TestModelSpecRoundTripResNet covers every layer kind the codec supports,
// including nested residual blocks with projections and batch-norm state.
func TestModelSpecRoundTripResNet(t *testing.T) {
	rng := nn.RandSource(2, 1)
	net := nn.NewResNetLite(nn.ResNetLiteConfig{InChannels: 3, NumClasses: 5, Width: 4}, rng)
	// Move batch-norm running stats off their defaults first.
	x4 := randInput(rng, 2, 3, 8, 8)
	net.Forward(x4, true)

	spec, err := EncodeModel(net)
	if err != nil {
		t.Fatal(err)
	}
	if spec.InputKind != "image" {
		t.Errorf("InputKind = %q, want image", spec.InputKind)
	}
	back, err := DecodeModel(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !net.Forward(x4, false).EqualApprox(back.Forward(x4, false), 1e-10) {
		t.Error("decoded ResNet-lite differs from original (inference mode)")
	}
	// Gradients must match too: the attacks depend on exact gradients of
	// the dispatched model.
	lossFn := nn.SoftmaxCrossEntropy{}
	labels := []int{0, 3}
	run := func(m *nn.Sequential) []*tensor.Tensor {
		m.ZeroGrad()
		out := m.Forward(x4, true)
		_, g := lossFn.Compute(out, labels)
		m.Backward(g)
		return m.Gradients()
	}
	ga, gb := run(net), run(back)
	if len(ga) != len(gb) {
		t.Fatalf("gradient counts differ: %d vs %d", len(ga), len(gb))
	}
	for i := range ga {
		if !ga[i].EqualApprox(gb[i], 1e-9) {
			t.Fatalf("gradient %d differs after round trip", i)
		}
	}
}

func TestModelSpecRoundTripPooling(t *testing.T) {
	rng := nn.RandSource(3, 1)
	net := nn.NewSequential(
		nn.NewConv2D("c", 1, 2, 3, 1, 1, rng),
		nn.NewMaxPool2D("mp", 2),
		nn.NewFlatten("fl"),
		nn.NewLinear("fc", 2*3*3, 2, rng),
	)
	spec, err := EncodeModel(net)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeModel(spec)
	if err != nil {
		t.Fatal(err)
	}
	x := randInput(rng, 2, 1, 6, 6)
	if !net.Forward(x, false).EqualApprox(back.Forward(x, false), 1e-12) {
		t.Error("decoded pooling net differs")
	}
}

func TestDecodeRejectsUnknownKind(t *testing.T) {
	if _, err := DecodeModel(ModelSpec{Layers: []LayerSpec{{Kind: "quantum"}}}); err == nil {
		t.Error("unknown layer kind accepted")
	}
}

func TestDecodeRejectsCorruptConv(t *testing.T) {
	spec := LayerSpec{Kind: "conv", Name: "c", InC: 2, OutC: 2, K: 3, Stride: 1, Pad: 1,
		W: tensor.New(1, 1, 1, 1), B: tensor.New(2)}
	if _, err := decodeLayer(spec); err == nil {
		t.Error("conv with mismatched weight shape accepted")
	}
	spec.W = nil
	if _, err := decodeLayer(spec); err == nil {
		t.Error("conv without parameters accepted")
	}
}

func TestDecodeRejectsCorruptBatchNorm(t *testing.T) {
	spec := LayerSpec{Kind: "batchnorm", Name: "bn", Channels: 3,
		Gamma: tensor.New(2), Beta: tensor.New(3),
		RunningMean: make([]float64, 3), RunningVar: make([]float64, 3)}
	if _, err := decodeLayer(spec); err == nil {
		t.Error("batchnorm with wrong gamma shape accepted")
	}
}

// TestDecodeModelParamsFromArena checks that every parameter value and
// gradient DecodeModel builds is arena-backed, so LocalClient's Release at
// the end of a round files it in the bucket the next decode draws from. The
// arena hands out arrays whose capacity is a power of two; tensor.New sizes
// them exactly, and no size here is a power of two.
func TestDecodeModelParamsFromArena(t *testing.T) {
	const n = 1100 // > 1024 floats (8 KiB): every tensor is pool-eligible
	filled := func(shape ...int) *tensor.Tensor {
		x := tensor.New(shape...)
		x.Fill(0.5)
		return x
	}
	spec := ModelSpec{InputKind: "image", Layers: []LayerSpec{
		{Kind: "conv", Name: "conv", InC: 1, OutC: n, K: 1, Stride: 1,
			W: filled(n, 1, 1, 1), B: filled(n)},
		{Kind: "batchnorm", Name: "bn", Channels: n, Eps: 1e-5, Momentum: 0.1,
			Gamma: filled(n), Beta: filled(n),
			RunningMean: make([]float64, n), RunningVar: make([]float64, n)},
		{Kind: "linear", Name: "fc", W: filled(n, 3), B: filled(n)},
	}}
	net, err := DecodeModel(spec)
	if err != nil {
		t.Fatal(err)
	}
	arena := func(x *tensor.Tensor) bool {
		c := cap(x.Data())
		return c >= 1<<10 && c&(c-1) == 0
	}
	ps := net.Params()
	if len(ps) != 6 {
		t.Fatalf("decoded %d params, want 6", len(ps))
	}
	for _, p := range ps {
		if !arena(p.W) || !arena(p.G) {
			t.Errorf("%s: W cap %d, G cap %d for %d elements; want arena capacities", p.Name, cap(p.W.Data()), cap(p.G.Data()), p.W.Len())
		}
		if p.W.Data()[0] != 0.5 {
			t.Errorf("%s: decoded value %v, want the spec's 0.5", p.Name, p.W.Data()[0])
		}
	}
}

// TestMaliciousSwapIsExpressible is the threat-model property: a dishonest
// server can replace the whole architecture with a different one and the
// client will faithfully run it.
func TestMaliciousSwapIsExpressible(t *testing.T) {
	rng := nn.RandSource(4, 1)
	honest := nn.NewResNetLite(nn.ResNetLiteConfig{InChannels: 3, NumClasses: 4, Width: 4}, rng)
	honestSpec, err := EncodeModel(honest)
	if err != nil {
		t.Fatal(err)
	}
	malicious := nn.NewSequential(
		nn.NewLinear("malicious", 3*8*8, 32, rng),
		nn.NewReLU("r"),
		nn.NewLinear("head", 32, 4, rng),
	)
	malSpec, err := EncodeModel(malicious)
	if err != nil {
		t.Fatal(err)
	}
	if honestSpec.InputKind == malSpec.InputKind {
		t.Error("swap should even change the input kind (image → flat)")
	}
	back, err := DecodeModel(malSpec)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(back.Layers); got != 3 {
		t.Errorf("decoded malicious model has %d layers", got)
	}
}

func TestModelSpecRoundTripExtraLayers(t *testing.T) {
	rng := nn.RandSource(5, 1)
	drop, err := nn.NewDropout("drop", 0.25, rng)
	if err != nil {
		t.Fatal(err)
	}
	net := nn.NewSequential(
		nn.NewLinear("fc1", 6, 8, rng),
		nn.NewSigmoid("sig"),
		nn.NewTanh("tanh"),
		drop,
		nn.NewLinear("fc2", 8, 3, rng),
	)
	spec, err := EncodeModel(net)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeModel(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Inference forward must agree exactly (dropout is identity there).
	x := randInput(rng, 4, 6)
	if !net.Forward(x, false).EqualApprox(back.Forward(x, false), 1e-12) {
		t.Error("decoded net with extra layers differs in inference mode")
	}
	// The dropout probability must survive the round trip.
	decoded, ok := back.Layers[3].(*nn.Dropout)
	if !ok {
		t.Fatalf("layer 3 decoded as %T", back.Layers[3])
	}
	if decoded.P != 0.25 {
		t.Errorf("dropout P = %g after round trip", decoded.P)
	}
}

package attack

import (
	"fmt"
	"math"
	rand "math/rand/v2"
	"sort"

	"github.com/oasisfl/oasis/internal/data"
	"github.com/oasisfl/oasis/internal/tensor"
)

// newRTF calibrates the "Robbing the Fed" imprint attack (Fowl et al., ICLR
// 2022; paper reference [18]).
//
// Every malicious neuron computes z_i = h(x) − c_i where h(x) = mean pixel
// brightness (every weight row is (1/d, …, 1/d)) and c_1 < … < c_n are
// thresholds at the empirical quantiles of mean brightness over the probe
// dataset (the attacker's public data). A sample with brightness h
// activates exactly the neurons {i : c_i < h}, so the whole layer is one
// run of n bins and adjacent-bin differencing isolates the samples in
// brightness bin (c_i, c_{i+1}]. OASIS defeats this by inserting
// mean-preserving transforms of every sample into its bin.
func newRTF(dims ImageDims, classes, neurons int, probe data.Dataset, rng *rand.Rand, probeSize int) (*Attack, error) {
	if neurons < 2 {
		return nil, fmt.Errorf("attack: RTF needs at least 2 neurons, got %d", neurons)
	}
	if probeSize > probe.Len() {
		probeSize = probe.Len()
	}
	means := make([]float64, 0, probeSize)
	for _, idx := range rng.Perm(probe.Len())[:probeSize] {
		im, _ := probe.Sample(idx)
		means = append(means, im.Mean())
	}
	sort.Float64s(means)
	thresholds := make([]float64, neurons)
	for i := range thresholds {
		q := (float64(i) + 0.5) / float64(neurons)
		thresholds[i] = quantile(means, q)
	}
	// Enforce strictly ascending edges (duplicated probe values would
	// otherwise create empty zero-width bins that break the differencing).
	for i := 1; i < neurons; i++ {
		if thresholds[i] <= thresholds[i-1] {
			thresholds[i] = thresholds[i-1] + 1e-12
		}
	}
	d := dims.Dim()
	w := tensor.New(neurons, d)
	inv := 1.0 / float64(d)
	wd := w.Data()
	for i := range wd {
		wd[i] = inv
	}
	b := tensor.New(neurons)
	for i, c := range thresholds {
		b.Data()[i] = -c
	}
	return &Attack{
		Kind: "rtf", Classes: classes, w: w, b: b,
		inversion: inversion{Dims: dims, Neurons: neurons, Bins: neurons},
	}, nil
}

// quantile returns the q-quantile of sorted values with linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

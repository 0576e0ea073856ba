package attack

import (
	mrand "math/rand"
	"testing"
	"testing/quick"

	"github.com/oasisfl/oasis/internal/data"
	"github.com/oasisfl/oasis/internal/nn"
)

// quickCfg pins the generator so the properties are deterministic across
// runs (testing/quick defaults to a time-based seed).
func quickCfg(maxCount int) *quick.Config {
	return &quick.Config{MaxCount: maxCount, Rand: mrand.New(mrand.NewSource(424242))}
}

// TestRTFSingleImageExactnessProperty is the Eq. 6 invariant at its
// sharpest: for any single-image batch, inverting the summed gradients
// recovers the image exactly (up to float64), regardless of the image or
// the attack seed. This is the degenerate case the paper's attack principle
// builds on — one sample per neuron ⇒ verbatim reconstruction.
func TestRTFSingleImageExactnessProperty(t *testing.T) {
	ds := data.NewSynthCustom("prop-rtf", 8, 1, 8, 8, 256, 99)
	dims := ImageDims{C: 1, H: 8, W: 8}
	err := quick.Check(func(seed uint64) bool {
		rng := nn.RandSource(seed, 77)
		rtf, err := newRTF(dims, ds.NumClasses(), 64, ds, rng, 64)
		if err != nil {
			return false
		}
		batch, err := data.RandomBatch(ds, rng, 1)
		if err != nil {
			return false
		}
		ev, recons, err := rtf.Run(batch, batch.Images, rng)
		if err != nil {
			return false
		}
		if len(recons) == 0 {
			// The image's brightness fell below every bin threshold: the
			// attacker misses entirely — allowed, just not inexact.
			return true
		}
		return ev.MaxPSNR() >= 149
	}, quickCfg(10))
	if err != nil {
		t.Error(err)
	}
}

// TestCAHSoloActivationExactnessProperty: whenever a trap neuron is
// activated by exactly one sample, Eq. 6 on that neuron reproduces the
// sample verbatim. Verified constructively: single-image batches make every
// activated neuron a solo neuron.
func TestCAHSoloActivationExactnessProperty(t *testing.T) {
	ds := data.NewSynthCustom("prop-cah", 8, 1, 8, 8, 256, 98)
	dims := ImageDims{C: 1, H: 8, W: 8}
	err := quick.Check(func(seed uint64) bool {
		rng := nn.RandSource(seed, 78)
		cah, err := newCAH(dims, ds.NumClasses(), 64, ds, rng, 64, 4)
		if err != nil {
			return false
		}
		batch, err := data.RandomBatch(ds, rng, 1)
		if err != nil {
			return false
		}
		ev, recons, err := cah.Run(batch, batch.Images, rng)
		if err != nil {
			return false
		}
		if len(recons) == 0 {
			// The lone image may trip no trap at all; that is a miss for
			// the attacker, not a property violation.
			return true
		}
		return ev.MaxPSNR() >= 149
	}, quickCfg(10))
	if err != nil {
		t.Error(err)
	}
}

// TestGradientSumProperty checks the linearity the whole attack class
// exploits (§III-A): gradients of a batch are the sum of per-sample
// gradients (cross-entropy means are rescaled to sums for comparison).
func TestGradientSumProperty(t *testing.T) {
	ds := data.NewSynthCustom("prop-sum", 4, 1, 6, 6, 64, 97)
	dims := ImageDims{C: 1, H: 6, W: 6}
	err := quick.Check(func(seed uint64) bool {
		rng := nn.RandSource(seed, 79)
		rtf, err := newRTF(dims, ds.NumClasses(), 16, ds, rng, 32)
		if err != nil {
			return false
		}
		victim, err := rtf.BuildVictim(rng)
		if err != nil {
			return false
		}
		batch, err := data.RandomBatch(ds, rng, 3)
		if err != nil {
			return false
		}
		// Batch gradients are the mean over samples; scale to a sum.
		gwB, gbB, _ := victim.Gradients(batch)
		gwB.ScaleInPlace(float64(batch.Size()))
		gbB.ScaleInPlace(float64(batch.Size()))
		// Sum of single-sample gradients.
		var gwS, gbS = gwB.Clone(), gbB.Clone()
		gwS.Zero()
		gbS.Zero()
		for i := range batch.Images {
			single := &data.Batch{}
			single.Append(batch.Images[i], batch.Labels[i])
			gw, gb, _ := victim.Gradients(single)
			gwS.AddInPlace(gw)
			gbS.AddInPlace(gb)
		}
		return gwB.EqualApprox(gwS, 1e-9) && gbB.EqualApprox(gbS, 1e-9)
	}, quickCfg(8))
	if err != nil {
		t.Error(err)
	}
}

package experiments

import (
	"fmt"

	"github.com/oasisfl/oasis/internal/attack"
	"github.com/oasisfl/oasis/internal/data"
	"github.com/oasisfl/oasis/internal/metrics"
	"github.com/oasisfl/oasis/internal/nn"
)

// Fig13 reproduces the gradient-inversion attack on linear models (§IV-D):
// a single-layer logistic model, batches with unique labels, B ∈ {8, 64},
// per transformation. The B=64 unique-label requirement needs ≥ 64 classes;
// the 10-class synthetic ImageNet is therefore paired with a 100-class
// variant at the same resolution for this experiment (substitution recorded
// in the README under "Running the paper experiments" — the paper's full
// ImageNet has 1000 classes, so unique labels were free).
func Fig13(cfg Config) (*Result, error) {
	imnet := data.NewSynthCustom("synth-imagenet-100c", 100, 3, 64, 64, 4096, cfg.Seed)
	cifar := data.NewSynthCIFAR100(cfg.Seed)
	batchSizes := []int{8, 64}
	trials := 3
	if cfg.Quick {
		batchSizes = []int{8}
		trials = 1
	}

	res := &Result{ID: "fig13"}
	t := metrics.NewTable("Figure 13: PSNR of linear-model gradient inversion per transformation", psnrBoxHeader...)
	for _, ds := range []data.Dataset{imnet, cifar} {
		atk := attack.NewLinearInversion(imageDims(ds), ds.NumClasses())
		for _, b := range batchSizes {
			stats := newPolicyPSNRStats()
			for _, polName := range fig5Policies {
				rng := nn.RandSource(cfg.Seed^hashLabel("fig13"+polName), uint64(b))
				for tr := 0; tr < trials; tr++ {
					batch, err := data.UniqueLabelBatch(ds, rng, b)
					if err != nil {
						return nil, err
					}
					client, err := applyPolicy(batch, polName)
					if err != nil {
						return nil, err
					}
					ev, _, err := atk.Run(client, batch.Images, rng)
					if err != nil {
						return nil, err
					}
					stats.add(polName, ev.PSNRs)
				}
			}
			stats.rows(t, ds.Name(), fmt.Sprintf("%d", b), fmt.Sprintf("%d", ds.NumClasses()))
			cfg.logf("fig13 %s B=%d done", ds.Name(), b)
		}
	}
	res.Tables = append(res.Tables, t)
	if err := res.saveCSV(cfg, "fig13.csv", t); err != nil {
		return nil, err
	}
	return res, nil
}

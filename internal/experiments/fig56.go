package experiments

import (
	"fmt"
	rand "math/rand/v2"

	"github.com/oasisfl/oasis/internal/attack"
	"github.com/oasisfl/oasis/internal/augment"
	"github.com/oasisfl/oasis/internal/core"
	"github.com/oasisfl/oasis/internal/data"
	"github.com/oasisfl/oasis/internal/metrics"
	"github.com/oasisfl/oasis/internal/nn"
)

// fig5Policies are the transformations of Figure 5 (RTF).
var fig5Policies = []string{"WO", "MR", "mR", "SH", "HFlip", "VFlip"}

// fig6Policies are the transformations of Figure 6 (CAH).
var fig6Policies = []string{"WO", "SH", "MR", "MR+SH"}

// psnrBoxHeader is the column layout of the box-plot tables.
var psnrBoxHeader = []string{"dataset", "B", "n", "policy", "count", "mean", "median", "q1", "q3", "min", "max"}

// Fig5 measures RTF reconstruction quality per transformation at the
// per-dataset optimal (B, n) pairs from Figure 3.
func Fig5(cfg Config) (*Result, error) {
	return transformExperiment(cfg, "fig5", fig5Policies, false)
}

// Fig6 measures CAH reconstruction quality per transformation at the
// per-dataset optimal (B, n) pairs from Figure 4, including the MR+SH
// integration that rescues the B=8 case.
func Fig6(cfg Config) (*Result, error) {
	return transformExperiment(cfg, "fig6", fig6Policies, true)
}

func transformExperiment(cfg Config, id string, policies []string, useCAH bool) (*Result, error) {
	res := &Result{ID: id}
	trials := 3
	probe := 256
	if cfg.Quick {
		trials, probe = 1, 64
	}
	t := metrics.NewTable(figTitle(id, useCAH), psnrBoxHeader...)
	for _, set := range datasets(cfg) {
		pairs := set.rtfPairs
		if useCAH {
			pairs = set.cahPairs
		}
		if !cfg.Quick && imageDims(set.ds).Dim() > 10000 {
			trials = 2 // the 64×64 set is ~4× the work per sample
		}
		for _, pair := range pairs {
			b, n := pair[0], pair[1]
			stats := newPolicyPSNRStats()
			for _, polName := range policies {
				rng := nn.RandSource(cfg.Seed^hashLabel(id+polName), uint64(b*10000+n))
				atk, err := buildAttack(set.ds, n, useCAH, probe, rng)
				if err != nil {
					return nil, err
				}
				for tr := 0; tr < trials; tr++ {
					batch, err := data.RandomBatch(set.ds, rng, b)
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
				cfg.logf("%s %s (B=%d,n=%d) %s mean=%.2f", id, set.ds.Name(), b, n, polName, stats.mean(polName))
			}
			stats.rows(t, set.ds.Name(), fmt.Sprintf("%d", b), fmt.Sprintf("%d", n))
		}
	}
	res.Tables = append(res.Tables, t)
	if err := res.saveCSV(cfg, id+".csv", t); err != nil {
		return nil, err
	}
	return res, nil
}

func figTitle(id string, useCAH bool) string {
	if useCAH {
		return "Figure 6: PSNR of CAH reconstructions per transformation (green-triangle mean = 'mean' column)"
	}
	return "Figure 5: PSNR of RTF reconstructions per transformation (green-triangle mean = 'mean' column)"
}

// buildAttack constructs the calibrated attack for one table cell. CAH traps
// are calibrated for the attacker's fixed anticipated batch regardless of
// the victim's true batch size (see cahAnticipatedBatch).
func buildAttack(ds data.Dataset, n int, useCAH bool, probe int, rng *rand.Rand) (*attack.Attack, error) {
	if useCAH {
		return newAttack("cah", ds, n, probe, cahAnticipatedBatch, rng)
	}
	return newAttack("rtf", ds, n, probe, 0, rng)
}

// applyPolicy expands the batch under the named OASIS policy ("WO" passes
// the batch through untouched).
func applyPolicy(batch *data.Batch, polName string) (*data.Batch, error) {
	pol, err := augment.ByName(polName)
	if err != nil {
		return nil, err
	}
	if pol == nil {
		return batch, nil
	}
	return core.New(pol).Apply(batch)
}

// hashLabel derives a stable seed perturbation from a label.
func hashLabel(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

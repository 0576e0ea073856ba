package experiments

import (
	"fmt"
	rand "math/rand/v2"

	"github.com/oasisfl/oasis/internal/attack"
	"github.com/oasisfl/oasis/internal/data"
	"github.com/oasisfl/oasis/internal/metrics"
	"github.com/oasisfl/oasis/internal/nn"
)

// Figures 3 and 4 are the attacker's hyperparameter search: average PSNR of
// undefended reconstructions over a grid of batch sizes and attacked-neuron
// counts, per dataset. The paper uses the per-dataset optima from these grids
// as the attack settings for Figures 5 and 6.

func gridSizes(cfg Config) (batches, neurons []int, trials int) {
	if cfg.Quick {
		return []int{8, 32}, []int{100, 300}, 1
	}
	return []int{8, 16, 32, 64, 128, 256},
		[]int{100, 200, 300, 400, 500, 600, 700, 800, 900, 1000},
		2
}

// Fig3 sweeps the RTF attack.
func Fig3(cfg Config) (*Result, error) {
	return gridExperiment(cfg, "fig3", "RTF", func(set evalSet, n int, rng *rand.Rand) (*attack.Attack, error) {
		probeSize := 256
		if cfg.Quick {
			probeSize = 64
		}
		return newAttack("rtf", set.ds, n, probeSize, 0, rng)
	})
}

// cahAnticipatedBatch is the batch size CAH calibrates its trap biases for.
// The attacker fixes the trap scale a priori — it cannot know the victim's
// real batch size — which is what makes the attack degrade as B grows
// (Figure 4's declining rows).
const cahAnticipatedBatch = 16

// Fig4 sweeps the CAH attack. Calibration is hoisted: one max-width trap
// layer per dataset is sliced per neuron count and reused across batch sizes.
func Fig4(cfg Config) (*Result, error) {
	batches, neurons, trials := gridSizes(cfg)
	maxN := neurons[len(neurons)-1]
	probeSize := 128
	if cfg.Quick {
		probeSize = 48
	}
	res := &Result{ID: "fig4"}
	for _, set := range datasets(cfg) {
		t := metrics.NewTable(
			fmt.Sprintf("Figure 4 (%s): CAH avg PSNR, rows = batch size, cols = attacked neurons", set.ds.Name()),
			append([]string{"B\\n"}, intHeaders(neurons)...)...)
		calRng := nn.RandSource(cfg.Seed^0xf16_4, hashLabel(set.ds.Name()))
		base, err := newAttack("cah", set.ds, maxN, probeSize, cahAnticipatedBatch, calRng)
		if err != nil {
			return nil, err
		}
		for _, b := range batches {
			rng := nn.RandSource(cfg.Seed^0xf16_4, uint64(b))
			row := []string{fmt.Sprintf("%d", b)}
			for _, n := range neurons {
				cah, err := base.Slice(n)
				if err != nil {
					return nil, err
				}
				mean, err := gridCell(set, cah, b, trials, rng)
				if err != nil {
					return nil, err
				}
				row = append(row, fmt.Sprintf("%.2f", mean))
			}
			t.AddRow(row...)
			cfg.logf("fig4 %s B=%d done", set.ds.Name(), b)
		}
		res.Tables = append(res.Tables, t)
		if err := res.saveCSV(cfg, fmt.Sprintf("fig4_%s.csv", set.ds.Name()), t); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func gridExperiment(cfg Config, id, label string, build func(set evalSet, n int, rng *rand.Rand) (*attack.Attack, error)) (*Result, error) {
	batches, neurons, trials := gridSizes(cfg)
	res := &Result{ID: id}
	for _, set := range datasets(cfg) {
		t := metrics.NewTable(
			fmt.Sprintf("Figure 3 (%s): %s avg PSNR, rows = batch size, cols = attacked neurons", set.ds.Name(), label),
			append([]string{"B\\n"}, intHeaders(neurons)...)...)
		for _, b := range batches {
			rng := nn.RandSource(cfg.Seed^0xf16_3, uint64(b))
			row := []string{fmt.Sprintf("%d", b)}
			for _, n := range neurons {
				atk, err := build(set, n, rng)
				if err != nil {
					return nil, err
				}
				mean, err := gridCell(set, atk, b, trials, rng)
				if err != nil {
					return nil, err
				}
				row = append(row, fmt.Sprintf("%.2f", mean))
			}
			t.AddRow(row...)
			cfg.logf("%s %s B=%d done", id, set.ds.Name(), b)
		}
		res.Tables = append(res.Tables, t)
		if err := res.saveCSV(cfg, fmt.Sprintf("%s_%s.csv", id, set.ds.Name()), t); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// gridCell measures the mean PSNR of undefended reconstructions over trials.
func gridCell(set evalSet, atk *attack.Attack, batchSize, trials int, rng *rand.Rand) (float64, error) {
	total, count := 0.0, 0
	for tr := 0; tr < trials; tr++ {
		batch, err := data.RandomBatch(set.ds, rng, batchSize)
		if err != nil {
			return 0, err
		}
		ev, _, err := atk.Run(batch, batch.Images, rng)
		if err != nil {
			return 0, err
		}
		for _, p := range ev.PSNRs {
			total += p
			count++
		}
	}
	if count == 0 {
		return 0, nil
	}
	return total / float64(count), nil
}

func intHeaders(ns []int) []string {
	out := make([]string, len(ns))
	for i, n := range ns {
		out[i] = fmt.Sprintf("%d", n)
	}
	return out
}

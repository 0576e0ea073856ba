package main

import (
	"fmt"

	"github.com/oasisfl/oasis/internal/experiments"
	"github.com/oasisfl/oasis/internal/sim"
)

// workload is one named input set. Exactly one of scenario and grid is set:
// a simulation workload runs sim.Run on the scenario, a grid workload runs
// the attack×defense sweep the config describes. Both builders take the
// seed and nothing else, so the same seed always yields the same inputs.
type workload struct {
	name     string
	scenario func(seed uint64, dry bool) sim.Scenario
	grid     func(seed uint64, dry bool) experiments.SweepConfig
	// listed marks the workloads BENCHMARK.json names, in its order.
	listed bool
}

func (w workload) isGrid() bool { return w.grid != nil }

var workloads = []workload{
	{name: "imprint-cifar", scenario: imprintCIFAR, listed: true},
	{name: "grid-sweep", grid: gridSweep, listed: true},
	// population-1M runs on request only: its run-to-run spread on a shared
	// host exceeds the largest bound BENCHMARK.json may set (README.md).
	{name: "population-1M", scenario: population1M},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// imprintCIFAR is the paper's pinned CIFAR100 RTF pair: 3×32×32 images,
// batch 8, a 500-neuron imprint layer active every round, and OASIS (MR) on
// every client. The dry form keeps the shapes and shrinks the population.
func imprintCIFAR(seed uint64, dry bool) sim.Scenario {
	sc := sim.Scenario{
		Name:    "imprint-cifar",
		Seed:    seed,
		Clients: 64, Rounds: 4, ClientsPerRound: 16, BatchSize: 8,
		Dataset:     sim.DatasetSpec{Classes: 10, Channels: 3, Height: 32, Width: 32, Samples: 1024},
		Partition:   "iid",
		Defense:     sim.DefenseSpec{Kind: "oasis:MR", Fraction: 1},
		Attack:      sim.AttackSpec{Kind: "rtf", Neurons: 500, FirstRound: 0, LastRound: 3},
		Model:       sim.ArchSpec{Kind: "mlp", Hidden: 32},
		TestSamples: 64,
	}
	if dry {
		sc.Clients, sc.ClientsPerRound, sc.Rounds = 4, 2, 2
		sc.Dataset.Samples = 64
		sc.Attack.Neurons, sc.Attack.LastRound = 50, 1
		sc.TestSamples = 16
	}
	return sc
}

// population1M is the cross-device-1M preset (one million virtual clients,
// cohort 1024, dropout and stragglers) at the benchmark's seed.
func population1M(seed uint64, dry bool) sim.Scenario {
	sc, ok := sim.Preset("cross-device-1M")
	if !ok {
		panic("perfbench: preset cross-device-1M is missing")
	}
	sc = sc.WithSeed(seed)
	sc.Name = "population-1M"
	if dry {
		sc.Clients, sc.ClientsPerRound = 1000, 32
		sc.Dataset.Samples = 2000
		sc.TestSamples = 16
	}
	return sc
}

// gridSweep is the default attack×defense grid on the 12-client sweep base,
// ten replicates per cell (200 jobs).
func gridSweep(seed uint64, dry bool) experiments.SweepConfig {
	base := experiments.DefaultSweepScenario()
	base.Seed = seed
	cfg := experiments.SweepConfig{
		Base:       base,
		Attacks:    []string{"rtf", "cah", "qbi", "loki"},
		Defenses:   experiments.DefaultSweepDefenses(),
		Replicates: 10,
		Workers:    1,
	}
	if dry {
		cfg.Replicates = 1
	}
	return cfg
}

package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"github.com/oasisfl/oasis/internal/experiments"
	"github.com/oasisfl/oasis/internal/sim"
)

// digestFile records, for the default seed, the SHA-256 of every workload's
// report JSON at full size and in its shrunken dry form. A digest changes
// only when the benchmark's inputs change; regenerate the file with
// `perfbench -digests` then.
//
//go:embed digests.json
var digestFile []byte

type digestTable struct {
	DefaultSeed uint64            `json:"default_seed"`
	Full        map[string]string `json:"full"`
	Dry         map[string]string `json:"dry"`
}

func loadDigests() (digestTable, error) {
	var t digestTable
	if err := json.Unmarshal(digestFile, &t); err != nil {
		return t, fmt.Errorf("digests.json: %w", err)
	}
	return t, nil
}

func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// expect checks one report digest: against the recorded digest when the
// report comes from the default seed, and against the first report of the
// same inputs in this process otherwise (same seed, same bytes).
func (b *bench) expect(seed uint64, dry bool, got string) error {
	if seed == b.digests.DefaultSeed {
		table := b.digests.Full
		if dry {
			table = b.digests.Dry
		}
		want, ok := table[b.w.name]
		if !ok {
			return fmt.Errorf("no recorded digest for %s (dry=%v)", b.w.name, dry)
		}
		if got != want {
			return fmt.Errorf("%s report digest %s, recorded %s (dry=%v)", b.w.name, got, want, dry)
		}
	}
	key := fmt.Sprintf("%d/%v", seed, dry)
	if prev, ok := b.seen[key]; ok && prev != got {
		return fmt.Errorf("%s report for seed %d changed between runs of the same inputs", b.w.name, seed)
	}
	b.seen[key] = got
	return nil
}

// simDigest is the SHA-256 of a report's JSON.
func simDigest(rep *sim.Report) (string, error) {
	js, err := rep.JSON()
	if err != nil {
		return "", err
	}
	return digest(js), nil
}

func gridDigest(rep *experiments.SweepReport) (string, error) {
	js, err := rep.JSON()
	if err != nil {
		return "", err
	}
	return digest(js), nil
}

// checkSim validates one sim.Run: no error, a progress line per round that
// agrees with the report, and the expected report bytes.
func (b *bench) checkSim(sc sim.Scenario, dry bool, rep *sim.Report, err error, clock *roundClock) error {
	if err != nil {
		return err
	}
	if clock.err != nil {
		return clock.err
	}
	if len(clock.completed) != len(rep.Rounds) || len(rep.Rounds) != sc.Rounds {
		return fmt.Errorf("%d progress lines and %d report rounds for %d rounds",
			len(clock.completed), len(rep.Rounds), sc.Rounds)
	}
	for i, rr := range rep.Rounds {
		if rr.Completed != clock.completed[i] {
			return fmt.Errorf("round %d: progress says %d completed, report says %d", i, clock.completed[i], rr.Completed)
		}
	}
	if sc.Attack.Kind != "" && rep.AttackReconstructions == 0 {
		return fmt.Errorf("%s attack reconstructed nothing", sc.Attack.Kind)
	}
	d, err := simDigest(rep)
	if err != nil {
		return err
	}
	return b.expect(sc.Seed, dry, d)
}

// checkGrid validates one grid pass: every job succeeded, every job logged
// each of its rounds, and the merged report has the expected bytes.
func (b *bench) checkGrid(cfg experiments.SweepConfig, dry bool, p *gridPass, err error) error {
	if err != nil {
		return err
	}
	for id, res := range p.results {
		if res == nil || res.Err != "" {
			return fmt.Errorf("job %d failed: %v", id, res)
		}
		if c := p.clocks[id]; c.err != nil || len(c.completed) != cfg.Base.Rounds {
			return fmt.Errorf("job %d logged %d of %d rounds (%v)", id, len(c.completed), cfg.Base.Rounds, c.err)
		}
	}
	d, err := gridDigest(p.report)
	if err != nil {
		return err
	}
	return b.expect(cfg.Base.Seed, dry, d)
}

// dryCheck runs the workload's shrunken form at the default seed and
// compares its report with the recorded digest.
func (b *bench) dryCheck() {
	seed := b.digests.DefaultSeed
	if b.w.isGrid() {
		cfg := b.w.grid(seed, true)
		p, err := runGridPass(cfg, b.cellWorkers)
		b.recordJobs(p, b.checkGrid(cfg, true, p, err))
		return
	}
	sc := b.w.scenario(seed, true)
	clock := newRoundClock()
	rep, err := sim.Run(sc, sim.Options{Workers: b.clientWorkers, Log: clock})
	b.record(b.checkSim(sc, true, rep, err, clock))
}

// record counts one attempted operation and reports whether it passed.
func (b *bench) record(err error) bool {
	b.attempted++
	if err != nil {
		b.failed++
		b.problems = append(b.problems, err.Error())
		return false
	}
	return true
}

// recordJobs counts a grid pass as one operation per job; a pass whose
// report fails the check fails all of its jobs.
func (b *bench) recordJobs(p *gridPass, err error) bool {
	n := 1
	if p != nil && p.grid != nil {
		n = p.grid.NumJobs()
	}
	b.attempted += n
	if err != nil {
		b.failed += n
		b.problems = append(b.problems, err.Error())
		return false
	}
	return true
}

// reportDigest runs the workload once and returns its report digest.
func reportDigest(w workload, seed uint64, dry bool) (string, error) {
	if w.isGrid() {
		p, err := runGridPass(w.grid(seed, dry), 1)
		if err != nil {
			return "", err
		}
		return gridDigest(p.report)
	}
	rep, err := sim.Run(w.scenario(seed, dry), sim.Options{Workers: 1})
	if err != nil {
		return "", err
	}
	return simDigest(rep)
}

package sim

import (
	"bytes"
	rand "math/rand/v2"
	"strings"
	"testing"

	"github.com/oasisfl/oasis/internal/attack"
	"github.com/oasisfl/oasis/internal/data"
	"github.com/oasisfl/oasis/internal/defense"
	"github.com/oasisfl/oasis/internal/fl"
	"github.com/oasisfl/oasis/internal/tensor"
)

// validBase is a minimal scenario every corpus entry mutates from.
func validBase() Scenario {
	return Scenario{
		Name: "corpus", Seed: 7,
		Clients: 8, Rounds: 4, BatchSize: 4,
		Dataset: DatasetSpec{Classes: 4, Channels: 1, Height: 8, Width: 8, Samples: 64},
		Attack:  AttackSpec{Kind: "qbi", Neurons: 16, Rounds: []int{1}},
	}
}

// TestScenarioValidationCorpus is the table-driven validation corpus for the
// registry-era spec: every registered attack kind must pass, and the classic
// spec mistakes (unknown kinds, bad rounds windows, negative neurons, bad
// defenses) must fail with a message naming the problem.
func TestScenarioValidationCorpus(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Scenario)
		wantErr string // "" = must validate
	}{
		{"base", func(*Scenario) {}, ""},
		{"attack-rtf", func(s *Scenario) { s.Attack.Kind = "rtf" }, ""},
		{"attack-cah", func(s *Scenario) { s.Attack.Kind = "cah" }, ""},
		{"attack-loki", func(s *Scenario) { s.Attack.Kind = "loki" }, ""},
		{"honest", func(s *Scenario) { s.Attack = AttackSpec{} }, ""},
		{"unknown-attack", func(s *Scenario) { s.Attack.Kind = "gradient-wizard" }, "unknown attack kind"},
		{"negative-neurons", func(s *Scenario) { s.Attack.Neurons = -3 }, "neurons must be > 0"},
		{"zero-neurons", func(s *Scenario) { s.Attack.Neurons = 0 }, "neurons must be > 0"},
		{"window-after-run", func(s *Scenario) {
			s.Attack.Rounds = nil
			s.Attack.FirstRound, s.Attack.LastRound = 10, 12
		}, "never strikes"},
		{"inverted-window", func(s *Scenario) {
			s.Attack.Rounds = nil
			s.Attack.FirstRound, s.Attack.LastRound = 3, 1
		}, "never strikes"},
		{"explicit-round-outside", func(s *Scenario) { s.Attack.Rounds = []int{9} }, "never strikes"},
		{"defense-prune", func(s *Scenario) { s.Defense = DefenseSpec{Kind: "prune:0.3"} }, ""},
		{"defense-ats", func(s *Scenario) { s.Defense = DefenseSpec{Kind: "ats:MR"} }, ""},
		{"defense-prune-bad-keep", func(s *Scenario) { s.Defense = DefenseSpec{Kind: "prune:1.5"} }, "pruning"},
		{"defense-ats-bad-policy", func(s *Scenario) { s.Defense = DefenseSpec{Kind: "ats:bogus"} }, "ats:bogus"},
		{"defense-unknown", func(s *Scenario) { s.Defense = DefenseSpec{Kind: "tinfoil"} }, "unknown kind"},
		{"defense-pipeline", func(s *Scenario) { s.Defense = DefenseSpec{Kind: "oasis:MR|dpsgd:1,0.1"} }, ""},
		{"defense-pipeline-triple", func(s *Scenario) { s.Defense = DefenseSpec{Kind: "ats:SH|prune:0.5|dpsgd:2,0.3"} }, ""},
		{"defense-pipeline-duplicate-stage", func(s *Scenario) { s.Defense = DefenseSpec{Kind: "prune:0.3|prune:0.3"} }, ""},
		{"defense-pipeline-empty-segment", func(s *Scenario) { s.Defense = DefenseSpec{Kind: "oasis:MR||prune:0.5"} }, "segment 2 is empty"},
		{"defense-pipeline-trailing-bar", func(s *Scenario) { s.Defense = DefenseSpec{Kind: "oasis:MR|"} }, "segment 2 is empty"},
		{"defense-pipeline-only-bar", func(s *Scenario) { s.Defense = DefenseSpec{Kind: "|"} }, "segment 1 is empty"},
		{"defense-pipeline-bad-tail", func(s *Scenario) { s.Defense = DefenseSpec{Kind: "oasis:MR|dpsgd:1"} }, "segment 2"},
		{"defense-dpsgd-nan-sigma", func(s *Scenario) { s.Defense = DefenseSpec{Kind: "dpsgd:1,NaN"} }, "finite clip > 0"},
		{"defense-dpsgd-inf-clip", func(s *Scenario) { s.Defense = DefenseSpec{Kind: "dpsgd:Inf,0.1"} }, "finite clip > 0"},
		{"defense-prune-nan", func(s *Scenario) { s.Defense = DefenseSpec{Kind: "prune:NaN"} }, "pruning"},
		{"aggregator-trimmed-nan", func(s *Scenario) { s.Aggregator = "trimmed:NaN" }, "trimmed-mean fraction"},
		{"aggregator-normclip-nan", func(s *Scenario) { s.Aggregator = "normclip:NaN" }, "finite max norm"},
		{"aggregator-normclip-inf", func(s *Scenario) { s.Aggregator = "normclip:Inf" }, "finite max norm"},
		{"partition-dirichlet-nan", func(s *Scenario) { s.Partition = "dirichlet:NaN" }, "finite number"},
		{"partition-quantity-inf", func(s *Scenario) { s.Partition = "quantity:Inf" }, "finite number"},
		{"no-clients", func(s *Scenario) { s.Clients = 0 }, "clients must be > 0"},
		{"negative-rounds", func(s *Scenario) { s.Rounds = -1 }, "rounds must be > 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := validBase()
			tc.mutate(&sc)
			_, err := sc.Normalize()
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("want valid, got %v", err)
			case tc.wantErr != "" && err == nil:
				t.Fatalf("want error containing %q, got none", tc.wantErr)
			case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

// TestUnknownAttackErrorListsRegistry pins the stale-message fix: the
// validation error must name every registered family, not a hard-coded pair.
func TestUnknownAttackErrorListsRegistry(t *testing.T) {
	sc := validBase()
	sc.Attack.Kind = "nope"
	_, err := sc.Normalize()
	if err == nil {
		t.Fatal("unknown kind accepted")
	}
	for _, kind := range attack.Names() {
		if !strings.Contains(err.Error(), kind) {
			t.Errorf("validation error %q does not list registered kind %q", err, kind)
		}
	}
	if strings.Contains(err.Error(), "want rtf or cah") {
		t.Error("validation error still hard-codes the pre-registry kinds")
	}
}

// TestUnknownDefenseErrorListsRegistry pins the defense counterpart of the
// stale-message fix: the validation error must name every registered defense
// family dynamically, not a hard-coded list.
func TestUnknownDefenseErrorListsRegistry(t *testing.T) {
	sc := validBase()
	sc.Defense = DefenseSpec{Kind: "tinfoil"}
	_, err := sc.Normalize()
	if err == nil {
		t.Fatal("unknown defense kind accepted")
	}
	for _, kind := range defense.Names() {
		if !strings.Contains(err.Error(), kind) {
			t.Errorf("validation error %q does not list registered kind %q", err, kind)
		}
	}
	if strings.Contains(err.Error(), "want oasis:<policy>, dpsgd:<clip>,<sigma>") {
		t.Error("validation error still hard-codes the pre-registry kinds")
	}
}

// TestCustomDefenseAcceptedInScenario is the open-extension acceptance bar:
// a defense registered by a library user must immediately be a valid
// scenario kind — standalone and as a pipeline segment — with no sim-side
// switch to update, and must run end to end.
func TestCustomDefenseAcceptedInScenario(t *testing.T) {
	err := defense.Register("halve", func(arg string, cfg defense.Config) (defense.Defense, error) {
		return halveDefense{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sc := validBase()
	sc.Defense = DefenseSpec{Kind: "halve"}
	if _, err := sc.Normalize(); err != nil {
		t.Fatalf("custom defense kind rejected: %v", err)
	}
	sc.Defense = DefenseSpec{Kind: "oasis:MR|halve", Fraction: 1}
	norm, err := sc.Normalize()
	if err != nil {
		t.Fatalf("custom defense rejected as pipeline segment: %v", err)
	}
	rep, err := Run(norm, Options{Quick: true, Workers: 2})
	if err != nil {
		t.Fatalf("scenario with custom defense failed to run: %v", err)
	}
	if rep.Defense != "oasis(MR)|halve" {
		t.Errorf("report label %q, want resolved pipeline name oasis(MR)|halve", rep.Defense)
	}
}

// halveDefense is the custom test defense: a gradient-stage scaler.
type halveDefense struct{}

func (halveDefense) Name() string                         { return "halve" }
func (halveDefense) ApplyBatch(b *data.Batch) *data.Batch { return b }
func (halveDefense) ApplyGrads(grads []*tensor.Tensor) {
	for _, g := range grads {
		g.ScaleInPlace(0.5)
	}
}

// TestScenarioRandomSpecCorpus drives Normalize over seeded-random attack
// and schedule mutations: validation must accept exactly the specs whose
// kind is registered, neurons positive, and window live — and must never
// panic regardless of the draw.
func TestScenarioRandomSpecCorpus(t *testing.T) {
	kinds := append([]string{"", "bogus", "RTF", "qbi ", "loki"}, attack.Names()...)
	rng := rand.New(rand.NewPCG(0xc0ffee, 1))
	for i := 0; i < 500; i++ {
		sc := validBase()
		sc.Rounds = 1 + rng.IntN(8)
		sc.Attack.Kind = kinds[rng.IntN(len(kinds))]
		sc.Attack.Neurons = rng.IntN(40) - 8
		sc.Attack.Rounds = nil
		sc.Attack.FirstRound = rng.IntN(10) - 2
		sc.Attack.LastRound = rng.IntN(10) - 2
		if rng.IntN(3) == 0 {
			sc.Attack.Rounds = []int{rng.IntN(12) - 2}
		}

		wantOK := true
		if sc.Attack.Kind != "" {
			if !attack.Known(sc.Attack.Kind) || sc.Attack.Neurons <= 0 {
				wantOK = false
			} else {
				live := false
				for r := 0; r < sc.Rounds; r++ {
					if sc.Attack.Active(r) {
						live = true
						break
					}
				}
				wantOK = live
			}
		}
		_, err := sc.Normalize()
		if wantOK && err != nil {
			t.Fatalf("draw %d (%+v): want valid, got %v", i, sc.Attack, err)
		}
		if !wantOK && err == nil {
			t.Fatalf("draw %d (%+v, rounds %d): invalid spec accepted", i, sc.Attack, sc.Rounds)
		}
	}
}

// FuzzScenarioDecode hardens the JSON front door: whatever bytes arrive,
// Decode and Normalize must fail cleanly instead of panicking, and a spec
// that normalizes must survive a JSON round trip to the same resolved form.
func FuzzScenarioDecode(f *testing.F) {
	seed := func(sc Scenario) {
		raw, err := sc.JSON()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	base := validBase()
	seed(base)
	loki := validBase()
	loki.Attack = AttackSpec{Kind: "loki", Neurons: 32, FirstRound: 1, LastRound: 2}
	seed(loki)
	bad := validBase()
	bad.Attack.Neurons = -5
	seed(bad)
	window := validBase()
	window.Attack.Rounds = []int{99}
	seed(window)
	composed := validBase()
	composed.Defense = DefenseSpec{Kind: "oasis:MR|dpsgd:1,0.1", Fraction: 0.5}
	seed(composed)
	duplicate := validBase()
	duplicate.Defense = DefenseSpec{Kind: "prune:0.3|prune:0.3"}
	seed(duplicate)
	f.Add([]byte(`{"name":"x","attack":{"kind":"qbi","neurons":1e9}}`))
	f.Add([]byte(`{"clients":1,"rounds":1,"dataset":{"classes":2,"channels":1,"height":1,"width":1,"samples":1}}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`{"unknown_field":true}`))
	f.Add([]byte(`{"name":"p","clients":2,"rounds":1,"dataset":{"classes":2,"channels":1,"height":4,"width":4,"samples":8},"defense":{"kind":"|"}}`))
	f.Add([]byte(`{"name":"p","clients":2,"rounds":1,"dataset":{"classes":2,"channels":1,"height":4,"width":4,"samples":8},"defense":{"kind":"oasis:MR||ats:SH"}}`))
	f.Add([]byte(`{"name":"p","clients":2,"rounds":1,"dataset":{"classes":2,"channels":1,"height":4,"width":4,"samples":8},"defense":{"kind":"dpsgd:1,0.1|dpsgd:1,0.1|dpsgd:1,0.1"}}`))
	f.Add([]byte(`{"name":"p","clients":2,"rounds":1,"dataset":{"classes":2,"channels":1,"height":4,"width":4,"samples":8},"defense":{"kind":"oasis:MR|"}}`))

	f.Fuzz(func(t *testing.T, raw []byte) {
		sc, err := Decode(bytes.NewReader(raw))
		if err != nil {
			return // malformed JSON must simply error
		}
		norm, err := sc.Normalize()
		if err != nil {
			return // invalid specs must simply error
		}
		round, err := norm.JSON()
		if err != nil {
			t.Fatalf("normalized scenario does not marshal: %v", err)
		}
		again, err := Decode(bytes.NewReader(round))
		if err != nil {
			t.Fatalf("normalized scenario does not re-decode: %v", err)
		}
		norm2, err := again.Normalize()
		if err != nil {
			t.Fatalf("normalized scenario does not re-validate: %v", err)
		}
		a, _ := norm.JSON()
		b, _ := norm2.JSON()
		if !bytes.Equal(a, b) {
			t.Fatalf("normalization is not a fixed point:\n%s\nvs\n%s", a, b)
		}
	})
}

// FuzzSpecStrings hardens the four spec strings a scenario carries
// (partition, defense pipeline, aggregator, attack kind). Each string goes
// to all four parsers; every parser must either error with a nil value, or
// return a value that runs on a tiny fixed input without panicking.
// Partitions must also keep the Partitioner contract: disjoint, covering,
// non-empty shards, and an attack's dishonest server must accept the
// gradients of its own victim model. The committed corpus in
// testdata/fuzz/FuzzSpecStrings holds the NaN/Inf parameters that once
// slipped through and the registered attack kinds.
func FuzzSpecStrings(f *testing.F) {
	for _, spec := range []string{
		"iid", "dirichlet:0.5", "quantity:1",
		"mean", "median", "trimmed:0.25", "normclip:5",
		"oasis:MR|dpsgd:1,0.1", "ats:SH|prune:0.3",
	} {
		f.Add(spec)
	}
	ds := data.NewSynthCustom("fuzz-spec", 4, 1, 4, 4, 100, 3)
	const clients = 10
	f.Fuzz(func(t *testing.T, spec string) {
		if p, err := data.NewPartitioner(spec); err != nil {
			if p != nil {
				t.Fatalf("NewPartitioner(%q) returned %#v alongside its error", spec, p)
			}
		} else {
			lp, err := data.PartitionLazy(p, ds, clients, rand.New(rand.NewPCG(1, 2)))
			if err != nil {
				t.Fatalf("%q: PartitionLazy: %v", spec, err)
			}
			parts := make([][]int, lp.Shards())
			for k := range parts {
				parts[k] = lp.Shard(k)
			}
			checkShards(t, spec, parts, ds.Len())
		}

		if pl, err := defense.NewPipeline(spec, defense.Config{Rng: rand.New(rand.NewPCG(1, 2))}); err != nil {
			if pl != nil {
				t.Fatalf("NewPipeline(%q) returned a pipeline alongside its error", spec)
			}
		} else if len(pl.Stages()) <= 4 {
			// Every OASIS stage multiplies the batch, so a long chain of
			// them grows it exponentially; such chains are parse-checked
			// only, while short ones still reach every stage kind.
			batch, err := data.RandomBatch(ds, rand.New(rand.NewPCG(3, 4)), 4)
			if err != nil {
				t.Fatal(err)
			}
			if out := pl.ApplyBatch(batch); out == nil || out.Size() == 0 {
				t.Fatalf("%q: batch stage returned an empty batch", spec)
			}
			g := tensor.New(3, 4)
			g.FillRandn(rand.New(rand.NewPCG(5, 6)), 1)
			pl.ApplyGrads([]*tensor.Tensor{g, tensor.New(4)})
		}

		if a, err := fl.NewAggregatorByName(spec); err != nil {
			if a != nil {
				t.Fatalf("NewAggregatorByName(%q) returned %#v alongside its error", spec, a)
			}
		} else {
			a.Reset()
			for i := 0; i < 3; i++ {
				g := tensor.New(2, 3)
				g.FillRandn(rand.New(rand.NewPCG(7, uint64(i))), 1)
				if err := a.Add(fl.Update{ClientID: "c", Grads: []*tensor.Tensor{g}}); err != nil {
					t.Fatalf("%q: Add: %v", spec, err)
				}
			}
			out, err := a.Finalize()
			if err != nil {
				t.Fatalf("%q: Finalize: %v", spec, err)
			}
			if len(out) != 1 || out[0].Len() != 6 {
				t.Fatalf("%q: aggregated %d tensors, want one of 6 values", spec, len(out))
			}
		}

		rng := rand.New(rand.NewPCG(9, 10))
		if atk, err := attack.New(spec, attack.Config{
			Dims: attack.ImageDims{C: 1, H: 4, W: 4}, Classes: 4, Neurons: 16,
			Probe: ds, ProbeSize: 32, Batch: 4, Rng: rng,
		}); err != nil {
			if atk != nil {
				t.Fatalf("attack.New(%q) returned %#v alongside its error", spec, atk)
			}
		} else {
			batch, err := data.RandomBatch(ds, rng, 4)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := atk.Run(batch, batch.Images, rng); err != nil {
				t.Fatalf("%q: Run: %v", spec, err)
			}
			srv, err := attack.NewAttackServer(atk, rng)
			if err != nil {
				t.Fatalf("%q: NewAttackServer: %v", spec, err)
			}
			victim, err := atk.BuildVictim(rng)
			if err != nil {
				t.Fatalf("%q: BuildVictim: %v", spec, err)
			}
			gw, gb, _ := victim.Gradients(batch)
			srv.Observe(0, fl.Update{ClientID: "c", Grads: []*tensor.Tensor{gw, gb}})
			if got := len(srv.Captures()); got != 1 {
				t.Fatalf("%q: the dishonest server ignored its own victim's gradients (%d captures)", spec, got)
			}
		}
	})
}

// checkShards asserts the Partitioner contract: every index in [0, n)
// appears in exactly one shard, and no shard is empty.
func checkShards(t *testing.T, label string, parts [][]int, n int) {
	t.Helper()
	seen := make([]bool, n)
	for k, shard := range parts {
		if len(shard) == 0 {
			t.Fatalf("%s: shard %d is empty", label, k)
		}
		for _, i := range shard {
			if i < 0 || i >= n || seen[i] {
				t.Fatalf("%s: index %d out of range or in two shards", label, i)
			}
			seen[i] = true
		}
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("%s: index %d in no shard", label, i)
		}
	}
}

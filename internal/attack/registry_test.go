package attack

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/oasisfl/oasis/internal/data"
	"github.com/oasisfl/oasis/internal/defense"
	"github.com/oasisfl/oasis/internal/nn"
)

// TestRegistryEveryKindRuns is the registry's contract test: every
// registered name constructs from one shared Config, builds a victim, and
// Run returns a sane Evaluation against an undefended batch (several
// reconstructions, near-verbatim quality). It also pins, per kind, the
// reconstruction count and the exact mean PSNR on the undefended batch and
// on its oasis:MR expansion, so a change to any calibration or to the shared
// inversion shows up here.
func TestRegistryEveryKindRuns(t *testing.T) {
	ds := data.NewSynthCustom("registry", 4, 1, 8, 8, 240, 11)
	type pin struct {
		recons   int
		meanPSNR string // %.17g
	}
	want := map[string][2]pin{ // undefended, oasis:MR
		"cah":  {{10, "72.054186893587342"}, {42, "17.293055909012221"}},
		"loki": {{8, "87.197821499507853"}, {24, "19.019035122320847"}},
		"qbi":  {{9, "78.465247761936212"}, {46, "17.447837667106477"}},
		"rtf":  {{4, "150"}, {4, "21.117829372632297"}},
	}
	for _, kind := range Names() {
		t.Run(kind, func(t *testing.T) {
			rng := nn.RandSource(11, 1)
			atk, err := New(kind, Config{
				Dims:    ImageDims{C: 1, H: 8, W: 8},
				Classes: ds.NumClasses(),
				Neurons: 64,
				Probe:   ds,
				Batch:   4,
				Rng:     rng,
			})
			if err != nil {
				t.Fatalf("New(%q): %v", kind, err)
			}
			if atk.Name() != kind {
				t.Errorf("Name() = %q, want the registry kind %q", atk.Name(), kind)
			}
			victim, err := atk.BuildVictim(rng)
			if err != nil {
				t.Fatalf("BuildVictim: %v", err)
			}
			if victim.Mal == nil || victim.Mal.Weight.W.Dim(1) != 64 {
				t.Fatal("victim's planted layer has the wrong input width")
			}
			batch, err := data.RandomBatch(ds, rng, 4)
			if err != nil {
				t.Fatal(err)
			}
			ev, recons, err := atk.Run(batch, batch.Images, rng)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if len(recons) == 0 || ev.NumReconstructions != len(recons) {
				t.Fatalf("Run returned %d reconstructions, evaluation counts %d",
					len(recons), ev.NumReconstructions)
			}
			if len(ev.PerOriginalBest) != batch.Size() {
				t.Errorf("PerOriginalBest has %d entries for a batch of %d",
					len(ev.PerOriginalBest), batch.Size())
			}
			for _, p := range ev.PSNRs {
				if math.IsNaN(p) || math.IsInf(p, 0) || p < 0 {
					t.Fatalf("insane PSNR %g", p)
				}
			}
			// Undefended, small batch, generous neuron budget: every family
			// must recover at least one essentially verbatim sample.
			if ev.MaxPSNR() < 40 {
				t.Errorf("undefended max PSNR %.1f dB; expected a near-verbatim reconstruction", ev.MaxPSNR())
			}
			mr, err := defense.New("oasis:MR", defense.Config{})
			if err != nil {
				t.Fatal(err)
			}
			evMR, _, err := atk.Run(mr.ApplyBatch(batch), batch.Images, rng)
			if err != nil {
				t.Fatalf("Run under oasis:MR: %v", err)
			}
			pins, ok := want[kind]
			if !ok {
				t.Fatalf("no pinned values for kind %q", kind)
			}
			for i, ev := range []Evaluation{ev, evMR} {
				got := pin{ev.NumReconstructions, fmt.Sprintf("%.17g", ev.MeanPSNR())}
				if got != pins[i] {
					t.Errorf("%s batch: got %d reconstructions at mean PSNR %s, want %d at %s",
						[]string{"undefended", "oasis:MR"}[i], got.recons, got.meanPSNR, pins[i].recons, pins[i].meanPSNR)
				}
			}
		})
	}
}

// TestRegistryUnknownKind asserts the error lists every valid family, which
// is what keeps validation messages from going stale.
func TestRegistryUnknownKind(t *testing.T) {
	_, err := New("gradient-wizard", Config{})
	if err == nil {
		t.Fatal("unknown kind accepted")
	}
	for _, kind := range Names() {
		if !strings.Contains(err.Error(), kind) {
			t.Errorf("error %q does not mention registered kind %q", err, kind)
		}
	}
}

// TestRegistryNames pins the built-in families and their sorted order.
func TestRegistryNames(t *testing.T) {
	want := []string{"cah", "loki", "qbi", "rtf"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Names()[%d] = %q, want %q", i, got[i], want[i])
		}
		if !Known(want[i]) {
			t.Errorf("Known(%q) = false", want[i])
		}
	}
	if Known("nope") {
		t.Error("Known(nope) = true")
	}
}

// TestRegisterRejectsBadRegistrations guards against shadowing built-ins.
func TestRegisterRejectsBadRegistrations(t *testing.T) {
	if err := Register("rtf", func(Config) (*Attack, error) { return nil, nil }); err == nil {
		t.Error("duplicate registration accepted")
	}
	if err := Register("", func(Config) (*Attack, error) { return nil, nil }); err == nil {
		t.Error("empty kind accepted")
	}
	if err := Register("x", nil); err == nil {
		t.Error("nil constructor accepted")
	}
}

// TestConfigDefaults checks the zero Config resolves probe size and batch.
func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.ProbeSize != 256 || cfg.Batch != 8 {
		t.Errorf("defaults = probe %d batch %d, want 256/8", cfg.ProbeSize, cfg.Batch)
	}
	// Explicit values survive.
	cfg = Config{ProbeSize: 7, Batch: 3}.withDefaults()
	if cfg.ProbeSize != 7 || cfg.Batch != 3 {
		t.Errorf("explicit values overridden: %+v", cfg)
	}
}

// TestConstructorValidationPropagates: every family rejects a nonsensical
// neuron budget through the registry path.
func TestConstructorValidationPropagates(t *testing.T) {
	ds := data.NewSynthCustom("registry-bad", 4, 1, 8, 8, 64, 12)
	for _, kind := range Names() {
		_, err := New(kind, Config{
			Dims:    ImageDims{C: 1, H: 8, W: 8},
			Classes: 4,
			Neurons: 0,
			Probe:   ds,
			Rng:     nn.RandSource(12, 1),
		})
		if err == nil {
			t.Errorf("%s accepted 0 neurons", kind)
		}
	}
}

// TestNewAttackServerDispatches runs the generic hook builder for every
// family and checks the label follows the attack name.
func TestNewAttackServerDispatches(t *testing.T) {
	ds := data.NewSynthCustom("registry-srv", 4, 1, 8, 8, 128, 13)
	for _, kind := range Names() {
		rng := nn.RandSource(13, 1)
		atk, err := New(kind, Config{
			Dims: ImageDims{C: 1, H: 8, W: 8}, Classes: 4, Neurons: 32,
			Probe: ds, Batch: 4, Rng: rng,
		})
		if err != nil {
			t.Fatalf("New(%q): %v", kind, err)
		}
		srv, err := NewAttackServer(atk, rng)
		if err != nil {
			t.Fatalf("NewAttackServer(%q): %v", kind, err)
		}
		if srv.Name() != "dishonest-"+kind {
			t.Errorf("server name %q, want dishonest-%s", srv.Name(), kind)
		}
	}
}

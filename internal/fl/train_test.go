package fl

import (
	"fmt"
	"testing"

	"github.com/oasisfl/oasis/internal/data"
	"github.com/oasisfl/oasis/internal/defense"
	"github.com/oasisfl/oasis/internal/nn"
)

// TestTrainEvaluatePinned pins fl.Train's last-epoch loss and fl.Evaluate's
// accuracy to full precision on a tiny ResNet-lite. The values were produced
// by the centralized loops Table I (undefended and OASIS rows) and the DP
// ablation ran before they were folded into Train, on these exact inputs, so
// any drift in batch order, defense hook placement, optimizer or loss
// bookkeeping shows up here before it reaches the 2-decimal report tables.
// 100 training samples at batch 12 drop a trailing partial batch; 44 test
// samples at batch 12 end on a partial one.
func TestTrainEvaluatePinned(t *testing.T) {
	ds := data.NewSynthCustom("fl-train-pin", 4, 3, 8, 8, 256, 11)
	splits, err := data.Split(ds.Len(), nn.RandSource(21, 1), 100, 44)
	if err != nil {
		t.Fatal(err)
	}
	trainSet := data.NewSubset(ds, splits[0], "pin-train")
	testSet := data.NewSubset(ds, splits[1], "pin-test")
	for _, tc := range []struct {
		spec      string // "" trains undefended
		loss, acc string
	}{
		{"", "0.80173452518840094", "0.65909090909090906"},
		{"oasis:MR", "0.75888142733948882", "0.52272727272727271"},
		{"dpsgd:1,1e-5", "0.76997927586822734", "0.65909090909090906"},
	} {
		t.Run(fmt.Sprintf("defense=%q", tc.spec), func(t *testing.T) {
			var def defense.Defense
			if tc.spec != "" {
				d, err := defense.New(tc.spec, defense.Config{Rng: nn.RandSource(23, 3)})
				if err != nil {
					t.Fatal(err)
				}
				def = d
			}
			net := nn.NewResNetLite(nn.ResNetLiteConfig{InChannels: 3, NumClasses: 4, Width: 4}, nn.RandSource(22, 2))
			loss, err := Train(net, trainSet, def, 4, 12, nn.RandSource(24, 4))
			if err != nil {
				t.Fatal(err)
			}
			acc, err := Evaluate(net, testSet, 12)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%.17g", loss); got != tc.loss {
				t.Errorf("last-epoch loss %s, want %s", got, tc.loss)
			}
			if got := fmt.Sprintf("%.17g", acc); got != tc.acc {
				t.Errorf("accuracy %s, want %s", got, tc.acc)
			}
		})
	}
}

// TestEvaluateRejectsEmptyDataset: an empty evaluation set has no accuracy,
// so Evaluate errors instead of reporting a silent zero.
func TestEvaluateRejectsEmptyDataset(t *testing.T) {
	empty := data.NewSubset(testShards(t, 1)[0], nil, "empty")
	if _, err := Evaluate(testModel(nil), empty, 16); err == nil {
		t.Error("Evaluate on an empty dataset returned no error")
	}
}

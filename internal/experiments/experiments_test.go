package experiments

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// quickCfg is the reduced-scale configuration shared by the smoke tests.
func quickCfg() Config { return Config{Quick: true, Seed: 42} }

// checkGoldenResult compares a quick run's rendered tables with a committed
// report captured before Table1 and DPTradeoff shared fl.Train, so any
// change to the shared loop that moves a printed figure fails here.
func checkGoldenResult(t *testing.T, res *Result, golden string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", golden))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.String(); got != string(want) {
		t.Errorf("%s: report diverged from the golden:\n got:\n%s\nwant:\n%s", golden, got, want)
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"fig2", "fig3", "fig4", "fig5", "fig6", "visual", "fig13", "fig14", "table1", "prop1", "dp", "pm", "robust", "scenario", "sweep"}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("registry[%d] = %s, want %s", i, got[i], want[i])
		}
	}
	if _, ok := ByID("fig5"); !ok {
		t.Error("ByID(fig5) missing")
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID(nope) found")
	}
}

// meanFor extracts the mean-PSNR cell for a (dataset, policy) row of a
// box-stats table (columns: dataset, B, n, policy, count, mean, …).
func meanFor(t *testing.T, res *Result, dataset, policy string) float64 {
	t.Helper()
	for _, tb := range res.Tables {
		for _, row := range tb.Rows {
			if len(row) >= 6 && strings.HasPrefix(row[0], dataset) && row[3] == policy {
				v, err := strconv.ParseFloat(row[5], 64)
				if err != nil {
					t.Fatalf("bad mean cell %q: %v", row[5], err)
				}
				return v
			}
		}
	}
	t.Fatalf("no row for %s/%s", dataset, policy)
	return 0
}

func TestFig5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep; smoke tier covers the scenario preset")
	}
	res, err := Fig5(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range []string{"synth-imagenet", "synth-cifar100"} {
		wo := meanFor(t, res, ds, "WO")
		mr := meanFor(t, res, ds, "MR")
		if wo < 100 {
			t.Errorf("%s: undefended RTF mean %.1f dB, want ≈ perfect (>100)", ds, wo)
		}
		// Every transform must collapse the mean PSNR (paper Fig. 5).
		for _, pol := range []string{"MR", "mR", "SH", "HFlip", "VFlip"} {
			if m := meanFor(t, res, ds, pol); m > 45 {
				t.Errorf("%s: %s mean PSNR %.1f dB, want < 45", ds, pol, m)
			}
		}
		// Flips are the weakest transforms (mirror reveals content, and a
		// 2-image blend keeps more signal than a 4-image blend).
		if hf := meanFor(t, res, ds, "HFlip"); hf <= mr {
			t.Errorf("%s: HFlip (%.1f) not above MR (%.1f) — paper's ordering lost", ds, hf, mr)
		}
	}
}

func TestFig6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep; smoke tier covers the scenario preset")
	}
	res, err := Fig6(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range []string{"synth-imagenet", "synth-cifar100"} {
		wo := meanFor(t, res, ds, "WO")
		mrsh := meanFor(t, res, ds, "MR+SH")
		if mrsh >= wo {
			t.Errorf("%s: MR+SH (%.1f) did not beat WO (%.1f)", ds, mrsh, wo)
		}
		// The integration beats each single transform (paper Fig. 6).
		for _, pol := range []string{"SH", "MR"} {
			if single := meanFor(t, res, ds, pol); mrsh > single {
				t.Errorf("%s: MR+SH (%.1f) worse than %s (%.1f)", ds, mrsh, pol, single)
			}
		}
	}
}

func TestFig13Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep; smoke tier covers the scenario preset")
	}
	res, err := Fig13(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range []string{"synth-imagenet-100c", "synth-cifar100"} {
		wo := meanFor(t, res, ds, "WO")
		for _, pol := range []string{"MR", "mR", "SH", "HFlip", "VFlip"} {
			if m := meanFor(t, res, ds, pol); m >= wo {
				t.Errorf("%s: %s (%.1f) not below WO (%.1f)", ds, pol, m, wo)
			}
		}
	}
}

func TestFig14Shape(t *testing.T) {
	res, err := Fig14(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	var ats, oasisMean float64
	var atsVerbatim, oasisVerbatim int
	for _, row := range res.Tables[0].Rows {
		mean, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		n, err := strconv.Atoi(row[3])
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case strings.HasPrefix(row[0], "ats"):
			ats, atsVerbatim = mean, n
		case strings.HasPrefix(row[0], "oasis"):
			oasisMean, oasisVerbatim = mean, n
		}
	}
	if ats < 100 {
		t.Errorf("ATS mean PSNR %.1f — RTF should defeat the replacement defense", ats)
	}
	if atsVerbatim == 0 {
		t.Error("ATS produced no verbatim recoveries; Figure 14 expects content revealed")
	}
	if oasisMean > 40 || oasisVerbatim != 0 {
		t.Errorf("OASIS row mean %.1f verbatim %d — defense should hold", oasisMean, oasisVerbatim)
	}
}

func TestFig3GridMonotoneInBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep; smoke tier covers the scenario preset")
	}
	res, err := Fig3(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Quick grid rows: B=8 and B=32; PSNR must not increase with B for
	// every neuron column (paper Fig. 3 trend).
	for _, tb := range res.Tables {
		if len(tb.Rows) != 2 {
			t.Fatalf("quick grid has %d rows", len(tb.Rows))
		}
		for col := 1; col < len(tb.Rows[0]); col++ {
			small, err1 := strconv.ParseFloat(tb.Rows[0][col], 64)
			large, err2 := strconv.ParseFloat(tb.Rows[1][col], 64)
			if err1 != nil || err2 != nil {
				t.Fatal("bad grid cells")
			}
			if large > small+1 { // +1 dB tolerance for trial noise
				t.Errorf("%s col %d: PSNR grew with batch size (%.1f → %.1f)", tb.Title, col, small, large)
			}
		}
	}
}

func TestTable1Runs(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep; smoke tier covers the scenario preset")
	}
	res, err := Table1(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	checkGoldenResult(t, res, "golden-table1-quick.txt")
	if len(res.Tables) != 1 || len(res.Tables[0].Rows) == 0 {
		t.Fatal("table1 produced no rows")
	}
	for _, row := range res.Tables[0].Rows {
		acc, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatal(err)
		}
		if acc < 0 || acc > 100 {
			t.Errorf("accuracy %s out of range", row[2])
		}
	}
}

func TestProp1Shape(t *testing.T) {
	res, err := Prop1(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	cells := map[string][]string{}
	for _, row := range res.Tables[0].Rows {
		cells[row[0]+"/"+row[1]] = row
	}
	// RTF with mean-preserving transforms satisfies Proposition 1 exactly.
	for _, pol := range []string{"MR", "mR", "SH", "HFlip", "VFlip", "MR+SH"} {
		row, ok := cells["RTF/"+pol]
		if !ok {
			t.Fatalf("missing RTF/%s row", pol)
		}
		if row[2] != "1.000" {
			t.Errorf("RTF/%s same-set = %s, want 1.000", pol, row[2])
		}
		if row[4] != "0.000" {
			t.Errorf("RTF/%s solo = %s, want 0.000", pol, row[4])
		}
	}
	// CAH: the MR+SH integration must reduce solo leakage below WO.
	woSolo, err1 := strconv.ParseFloat(cells["CAH/WO"][4], 64)
	mrshSolo, err2 := strconv.ParseFloat(cells["CAH/MR+SH"][4], 64)
	if err1 != nil || err2 != nil {
		t.Fatal("bad solo cells")
	}
	if mrshSolo >= woSolo {
		t.Errorf("CAH solo fraction: MR+SH %.3f !< WO %.3f", mrshSolo, woSolo)
	}
}

func TestDPTradeoffShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep; smoke tier covers the scenario preset")
	}
	res, err := DPTradeoff(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	checkGoldenResult(t, res, "golden-dp-quick.txt")
	rows := res.Tables[0].Rows
	if len(rows) < 2 {
		t.Fatal("dp table too short")
	}
	first, err1 := strconv.ParseFloat(rows[0][1], 64)
	last, err2 := strconv.ParseFloat(rows[len(rows)-1][1], 64)
	if err1 != nil || err2 != nil {
		t.Fatal("bad psnr cells")
	}
	if first < 100 {
		t.Errorf("σ=0 RTF mean PSNR %.1f, want ≈ perfect", first)
	}
	if last >= first {
		t.Errorf("largest σ did not reduce PSNR (%.1f → %.1f)", first, last)
	}
	// The amplified server must survive noise at least as well as the
	// plain one at every σ (the arms-race column).
	for _, row := range rows {
		plain, err1 := strconv.ParseFloat(row[1], 64)
		amp, err2 := strconv.ParseFloat(row[2], 64)
		if err1 != nil || err2 != nil {
			t.Fatal("bad gain cells")
		}
		if amp+5 < plain { // 5 dB slack for trial noise
			t.Errorf("σ=%s: amplified server (%.1f dB) below plain (%.1f dB)", row[0], amp, plain)
		}
	}
}

func TestPreserveMeanAblationShape(t *testing.T) {
	res, err := PreserveMean(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string][]string{}
	for _, row := range res.Tables[0].Rows {
		rows[row[0]+"/"+row[1]] = row
	}
	// With restoration on, shearing holds: no verbatim recoveries.
	if rows["SH/true"][4] != "0" {
		t.Errorf("SH with preserve-mean leaked %s images", rows["SH/true"][4])
	}
	// With it off, zero-fill shearing fails against RTF.
	if rows["SH/false"][4] == "0" {
		t.Error("SH without preserve-mean leaked nothing — ablation lost its point")
	}
	onMean, err1 := strconv.ParseFloat(rows["SH/true"][2], 64)
	offMean, err2 := strconv.ParseFloat(rows["SH/false"][2], 64)
	if err1 != nil || err2 != nil {
		t.Fatal("bad mean cells")
	}
	if onMean >= offMean {
		t.Errorf("preserve-mean did not lower PSNR: %.1f vs %.1f", onMean, offMean)
	}
}

func TestArtifactsWritten(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Quick: true, Seed: 42, OutDir: dir}
	res, err := Fig2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Artifacts) == 0 {
		t.Fatal("fig2 wrote no artifacts")
	}
	for _, a := range res.Artifacts {
		if _, err := os.Stat(a); err != nil {
			t.Errorf("artifact %s missing: %v", a, err)
		}
	}
	png := filepath.Join(dir, "fig2_psnr_illustration.png")
	if _, err := os.Stat(png); err != nil {
		t.Errorf("PNG missing: %v", err)
	}
}

func TestVisualRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep; smoke tier covers the scenario preset")
	}
	res, err := Visual(Config{Quick: true, Seed: 42, OutDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Artifacts) < 6 {
		t.Errorf("visual wrote %d artifacts, want ≥ 6 (figs 7–12)", len(res.Artifacts))
	}
}

// robustCells indexes the robust table rows by "aggregator/poisoned".
func robustCells(t *testing.T, res *Result) map[string][]string {
	t.Helper()
	out := map[string][]string{}
	for _, row := range res.Tables[0].Rows {
		out[row[0]+"/"+row[1]] = row
	}
	return out
}

func TestRobustShape(t *testing.T) {
	res, err := Robust(Config{Quick: true, Seed: 42, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	rows := robustCells(t, res)
	finalLoss := func(key string) float64 {
		row, ok := rows[key]
		if !ok {
			t.Fatalf("missing row %s", key)
		}
		v, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatalf("bad final-loss cell %q", row[3])
		}
		return v
	}
	meanPoisoned := finalLoss("mean/true")
	meanHonest := finalLoss("mean/false")
	// The poisoning client (×50 gradients) must hurt the plain mean…
	if meanPoisoned <= meanHonest {
		t.Errorf("poisoning did not degrade the mean: %.4f vs honest %.4f", meanPoisoned, meanHonest)
	}
	// …while every robust policy stays strictly better than the poisoned mean.
	for _, agg := range []string{"median", "trimmed:0.2", "normclip:1"} {
		if r := finalLoss(agg + "/true"); r >= meanPoisoned {
			t.Errorf("%s (%.4f) not better than poisoned mean (%.4f)", agg, r, meanPoisoned)
		}
	}
}

// TestScenarioExperiment runs the registry's scenario entry (the smoke
// preset in quick mode) and checks its summary table shape.
func TestScenarioExperiment(t *testing.T) {
	res, err := ScenarioSim(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables) < 2 {
		t.Fatalf("want summary + per-round tables, got %d", len(res.Tables))
	}
	summary := res.Tables[0]
	if len(summary.Rows) != 1 || summary.Rows[0][0] != "smoke" {
		t.Fatalf("quick scenario summary rows %v, want one smoke row", summary.Rows)
	}
	part := strings.TrimSuffix(summary.Rows[0][4], "%")
	v, err := strconv.ParseFloat(part, 64)
	if err != nil || v <= 0 || v > 100 {
		t.Errorf("participation cell %q out of range", summary.Rows[0][4])
	}
}

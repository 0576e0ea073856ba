package data

import (
	"math"
	rand "math/rand/v2"
	"reflect"
	"testing"
)

func partitionTestDataset() Dataset {
	return NewSynthCustom("part", 10, 1, 8, 8, 400, 7)
}

// checkCover asserts the shards are non-empty, disjoint, and cover every
// index exactly once.
func checkCover(t *testing.T, ds Dataset, parts [][]int, n int) {
	t.Helper()
	if len(parts) != n {
		t.Fatalf("got %d shards, want %d", len(parts), n)
	}
	seen := make(map[int]bool, ds.Len())
	for i, p := range parts {
		if len(p) == 0 {
			t.Fatalf("shard %d is empty", i)
		}
		for _, idx := range p {
			if idx < 0 || idx >= ds.Len() {
				t.Fatalf("shard %d holds out-of-range index %d", i, idx)
			}
			if seen[idx] {
				t.Fatalf("index %d assigned twice", idx)
			}
			seen[idx] = true
		}
	}
	if len(seen) != ds.Len() {
		t.Fatalf("%d of %d indices covered", len(seen), ds.Len())
	}
}

func TestPartitionersDisjointCoverage(t *testing.T) {
	ds := partitionTestDataset()
	for _, p := range []Partitioner{IID{}, Dirichlet{Alpha: 0.1}, Dirichlet{Alpha: 100}, Quantity{Sigma: 1}} {
		for _, n := range []int{1, 3, 17, 64} {
			parts, err := p.Partition(ds, n, rand.New(rand.NewPCG(1, 2)))
			if err != nil {
				t.Fatalf("%s n=%d: %v", p.Name(), n, err)
			}
			checkCover(t, ds, parts, n)
		}
	}
}

func TestPartitionerDeterminism(t *testing.T) {
	ds := partitionTestDataset()
	for _, spec := range []string{"iid", "dirichlet:0.1", "quantity:1"} {
		p, err := NewPartitioner(spec)
		if err != nil {
			t.Fatal(err)
		}
		a, err := p.Partition(ds, 12, rand.New(rand.NewPCG(5, 6)))
		if err != nil {
			t.Fatal(err)
		}
		b, err := p.Partition(ds, 12, rand.New(rand.NewPCG(5, 6)))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed produced different partitions", spec)
		}
		c, err := p.Partition(ds, 12, rand.New(rand.NewPCG(5, 7)))
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: different seeds produced identical partitions", spec)
		}
	}
}

// maxClassShare returns the mean (over shards) of the largest single-class
// share within each shard — 1/classes for perfectly balanced shards, →1 as
// each shard collapses onto one class.
func maxClassShare(ds Dataset, parts [][]int) float64 {
	total := 0.0
	for _, p := range parts {
		counts := map[int]int{}
		for _, idx := range p {
			_, y := ds.Sample(idx)
			counts[y]++
		}
		best := 0
		for _, c := range counts {
			if c > best {
				best = c
			}
		}
		total += float64(best) / float64(len(p))
	}
	return total / float64(len(parts))
}

func TestDirichletSkewScalesWithAlpha(t *testing.T) {
	ds := partitionTestDataset()
	share := func(alpha float64) float64 {
		parts, err := Dirichlet{Alpha: alpha}.Partition(ds, 10, rand.New(rand.NewPCG(3, 4)))
		if err != nil {
			t.Fatal(err)
		}
		return maxClassShare(ds, parts)
	}
	skewed, balanced := share(0.1), share(100)
	if skewed <= balanced {
		t.Fatalf("alpha=0.1 max-class share %.3f not above alpha=100 share %.3f", skewed, balanced)
	}
	// alpha=100 should be close to the IID floor (1/10 classes), alpha=0.1
	// should concentrate most of a shard on few classes.
	if balanced > 0.35 {
		t.Errorf("alpha=100 share %.3f; want near-IID (≤0.35)", balanced)
	}
	if skewed < 0.5 {
		t.Errorf("alpha=0.1 share %.3f; want concentrated (≥0.5)", skewed)
	}
}

func TestQuantitySkewScalesWithSigma(t *testing.T) {
	ds := partitionTestDataset()
	spread := func(sigma float64) float64 {
		parts, err := Quantity{Sigma: sigma}.Partition(ds, 10, rand.New(rand.NewPCG(8, 9)))
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := math.Inf(1), 0.0
		for _, p := range parts {
			lo = math.Min(lo, float64(len(p)))
			hi = math.Max(hi, float64(len(p)))
		}
		return hi / lo
	}
	if s0 := spread(0); s0 > 1.01 {
		t.Errorf("sigma=0 size ratio %.2f; want equal shards", s0)
	}
	if s1 := spread(1.5); s1 < 2 {
		t.Errorf("sigma=1.5 size ratio %.2f; want strongly skewed (≥2)", s1)
	}
}

func TestPartitionErrors(t *testing.T) {
	ds := NewSynthCustom("tiny", 2, 1, 4, 4, 5, 1)
	rng := rand.New(rand.NewPCG(1, 1))
	for _, p := range []Partitioner{IID{}, Dirichlet{Alpha: 1}, Quantity{Sigma: 1}} {
		if _, err := p.Partition(ds, 6, rng); err == nil {
			t.Errorf("%s: expected error for more clients than samples", p.Name())
		}
		if _, err := p.Partition(ds, 0, rng); err == nil {
			t.Errorf("%s: expected error for zero clients", p.Name())
		}
	}
}

func TestNewPartitionerSpecs(t *testing.T) {
	for spec, want := range map[string]string{
		"iid":           "iid",
		"dirichlet":     "dirichlet:0.5",
		"dirichlet:0.1": "dirichlet:0.1",
		"quantity:2":    "quantity:2",
	} {
		p, err := NewPartitioner(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if p.Name() != want {
			t.Errorf("%s: Name() = %s, want %s", spec, p.Name(), want)
		}
	}
	for _, bad := range []string{"", "zipf", "dirichlet:x", "dirichlet:-1", "quantity:-2", "iid:3",
		"dirichlet:NaN", "dirichlet:Inf", "quantity:NaN", "quantity:Inf", "quantity:+Inf"} {
		if _, err := NewPartitioner(bad); err == nil {
			t.Errorf("NewPartitioner(%q): expected error", bad)
		}
	}
}

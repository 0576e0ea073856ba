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

// materialize partitions ds through PartitionLazy and builds every shard.
func materialize(t *testing.T, p Partitioner, ds Dataset, n int, rng *rand.Rand) [][]int {
	t.Helper()
	lp, err := PartitionLazy(p, ds, n, rng)
	if err != nil {
		t.Fatalf("%s n=%d: %v", p.Name(), n, err)
	}
	parts := make([][]int, lp.Shards())
	for k := range parts {
		parts[k] = lp.Shard(k)
	}
	return parts
}

// TestPartitionersDisjointCoverage is a seeded property test of the
// Partitioner contract on the production path. The fixed cases come first,
// then random sample counts, class counts, client counts, alphas and sigmas.
// For each, the materialized shards must be non-empty, disjoint and
// covering, ShardLen(k) must equal len(Shard(k)), and Stats must agree with
// the materialized sizes.
func TestPartitionersDisjointCoverage(t *testing.T) {
	type propCase struct {
		p    Partitioner
		ds   Dataset
		n    int
		seed uint64
	}
	var cases []propCase
	for _, p := range []Partitioner{IID{}, Dirichlet{Alpha: 0.1}, Dirichlet{Alpha: 100}, Quantity{Sigma: 1}} {
		for _, n := range []int{1, 3, 17, 64} {
			cases = append(cases, propCase{p, partitionTestDataset(), n, 2})
		}
	}
	gen := rand.New(rand.NewPCG(15, 0x9a27))
	for i := range 300 {
		samples := 1 + gen.IntN(300)
		c := propCase{
			ds:   NewSynthCustom("prop", 1+gen.IntN(12), 1, 4, 4, samples, uint64(i)),
			n:    1 + gen.IntN(samples),
			seed: gen.Uint64(),
		}
		switch gen.IntN(3) {
		case 0:
			c.p = IID{}
		case 1:
			c.p = Dirichlet{Alpha: math.Pow(10, -2+4*gen.Float64())} // 0.01 to 100
		default:
			c.p = Quantity{Sigma: 3 * gen.Float64()}
		}
		cases = append(cases, c)
	}
	for _, c := range cases {
		lp, err := PartitionLazy(c.p, c.ds, c.n, rand.New(rand.NewPCG(1, c.seed)))
		if err != nil {
			t.Fatalf("%s samples=%d n=%d: %v", c.p.Name(), c.ds.Len(), c.n, err)
		}
		parts := make([][]int, lp.Shards())
		minLen, maxLen, total := c.ds.Len(), 0, 0
		for k := range parts {
			parts[k] = lp.Shard(k)
			if got := lp.ShardLen(k); got != len(parts[k]) {
				t.Fatalf("%s samples=%d n=%d: ShardLen(%d) = %d, want %d",
					c.p.Name(), c.ds.Len(), c.n, k, got, len(parts[k]))
			}
			minLen, maxLen, total = min(minLen, len(parts[k])), max(maxLen, len(parts[k])), total+len(parts[k])
		}
		checkCover(t, c.ds, parts, c.n)
		gotMin, gotMax, gotMean := lp.Stats()
		if gotMin != minLen || gotMax != maxLen || gotMean != float64(total)/float64(c.n) {
			t.Fatalf("%s samples=%d n=%d: Stats() = (%d, %d, %g), want (%d, %d, %g)", c.p.Name(), c.ds.Len(), c.n,
				gotMin, gotMax, gotMean, minLen, maxLen, float64(total)/float64(c.n))
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
		a := materialize(t, p, ds, 12, rand.New(rand.NewPCG(5, 6)))
		b := materialize(t, p, ds, 12, rand.New(rand.NewPCG(5, 6)))
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed produced different partitions", spec)
		}
		c := materialize(t, p, ds, 12, rand.New(rand.NewPCG(5, 7)))
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
		return maxClassShare(ds, materialize(t, Dirichlet{Alpha: alpha}, ds, 10, rand.New(rand.NewPCG(3, 4))))
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
		lo, hi := math.Inf(1), 0.0
		for _, p := range materialize(t, Quantity{Sigma: sigma}, ds, 10, rand.New(rand.NewPCG(8, 9))) {
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
		if _, err := PartitionLazy(p, ds, 6, rng); err == nil {
			t.Errorf("%s: expected error for more clients than samples", p.Name())
		}
		if _, err := PartitionLazy(p, ds, 0, rng); err == nil {
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

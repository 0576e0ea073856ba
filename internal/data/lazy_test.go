package data

import (
	"fmt"
	"math"
	rand "math/rand/v2"
	"reflect"
	"testing"
)

// lazyCases crosses every built-in policy with ragged population sizes,
// including combinations chosen to force the empty-shard rebalance path
// (many clients vs few samples with heavy skew).
var lazyCases = []struct {
	spec    string
	samples int
	clients []int
}{
	{"iid", 101, []int{1, 3, 7, 12, 97, 101}},
	{"dirichlet:0.5", 101, []int{1, 4, 10, 33}},
	{"dirichlet:0.1", 64, []int{5, 17, 50}}, // alpha 0.1 + n≈len forces rebalancing
	{"dirichlet:0.05", 60, []int{48, 60}},   // extreme skew: many empty draws
	{"quantity:0.5", 101, []int{2, 9, 25}},
	{"quantity:1", 50, []int{7, 40, 50}}, // sigma 1 + n≈len forces rebalancing
	{"quantity:0", 30, []int{4, 30}},
}

// TestLazyShardMatchesEager is the differential proof behind the
// lazy-materialization engine: for every policy and every shard k,
// Shard(k) must equal the eager reference algorithm's shard k element for
// element, with ShardLen and Stats agreeing — including populations where
// the empty-shard rebalance rewrites donor shards.
func TestLazyShardMatchesEager(t *testing.T) {
	for _, tc := range lazyCases {
		for _, n := range tc.clients {
			t.Run(fmt.Sprintf("%s/n=%d", tc.spec, n), func(t *testing.T) {
				p, err := NewPartitioner(tc.spec)
				if err != nil {
					t.Fatal(err)
				}
				ds := NewSynthCustom("lazy-diff", 10, 1, 4, 4, tc.samples, 7)
				eager, err := refPartition(p, ds, n, rand.New(rand.NewPCG(99, 0x5c3a)))
				if err != nil {
					t.Fatal(err)
				}
				lazy, err := PartitionLazy(p, ds, n, rand.New(rand.NewPCG(99, 0x5c3a)))
				if err != nil {
					t.Fatal(err)
				}
				if lazy.Name() != p.Name() || lazy.Shards() != n {
					t.Fatalf("lazy identity = (%q, %d), want (%q, %d)", lazy.Name(), lazy.Shards(), p.Name(), n)
				}
				eMin, eMax, eTotal := tc.samples, 0, 0
				for k := range eager {
					if got := lazy.Shard(k); !reflect.DeepEqual(got, eager[k]) {
						t.Fatalf("shard %d diverged:\n lazy: %v\neager: %v", k, got, eager[k])
					}
					if got := lazy.ShardLen(k); got != len(eager[k]) {
						t.Fatalf("ShardLen(%d) = %d, want %d", k, got, len(eager[k]))
					}
					eMin = min(eMin, len(eager[k]))
					eMax = max(eMax, len(eager[k]))
					eTotal += len(eager[k])
				}
				gotMin, gotMax, gotMean := lazy.Stats()
				if gotMin != eMin || gotMax != eMax || gotMean != float64(eTotal)/float64(n) {
					t.Fatalf("Stats() = (%d, %d, %g), want (%d, %d, %g)",
						gotMin, gotMax, gotMean, eMin, eMax, float64(eTotal)/float64(n))
				}
			})
		}
	}
}

// TestLazyRebalanceActuallyExercised guards the test matrix itself: at least
// one case must hit the empty-shard rebalance, otherwise the donated /
// received replay in LazyPartition is dead code under test.
func TestLazyRebalanceActuallyExercised(t *testing.T) {
	hit := false
	for _, tc := range lazyCases {
		for _, n := range tc.clients {
			p, err := NewPartitioner(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			ds := NewSynthCustom("lazy-diff", 10, 1, 4, 4, tc.samples, 7)
			lazy, err := PartitionLazy(p, ds, n, rand.New(rand.NewPCG(99, 0x5c3a)))
			if err != nil {
				t.Fatal(err)
			}
			if lazy.donated != nil {
				hit = true
			}
		}
	}
	if !hit {
		t.Fatal("no lazy case triggered empty-shard rebalancing; widen lazyCases")
	}
}

// TestIIDShardPrefixStability pins the keyed-stream property the virtual
// engine's determinism rests on: the permutation underlying IID depends only
// on (dataset, seed), never on the client count, so growing the population
// re-slices the same stream instead of reshuffling it. Concatenating all
// shards must therefore yield the identical sequence for every n.
func TestIIDShardPrefixStability(t *testing.T) {
	ds := NewSynthCustom("lazy-prefix", 10, 1, 4, 4, 60, 7)
	flatten := func(n int) []int {
		lazy, err := PartitionLazy(IID{}, ds, n, rand.New(rand.NewPCG(11, 0x5c3a)))
		if err != nil {
			t.Fatal(err)
		}
		var all []int
		for k := 0; k < n; k++ {
			all = append(all, lazy.Shard(k)...)
		}
		return all
	}
	base := flatten(4)
	for _, n := range []int{5, 12, 60} {
		if got := flatten(n); !reflect.DeepEqual(got, base) {
			t.Fatalf("underlying IID stream changed when growing clients 4→%d", n)
		}
	}
}

// hugeDataset claims more samples than an int32 index can address. Only
// its length is ever read: partitioning must reject it before drawing.
type hugeDataset struct{ Dataset }

func (hugeDataset) Len() int { return math.MaxInt32 + 1 }

// TestLazyPartitionErrors pins argument validation: bad arguments fail
// through the single entry point before any draw.
func TestLazyPartitionErrors(t *testing.T) {
	ds := NewSynthCustom("lazy-err", 10, 1, 4, 4, 5, 7)
	rng := func() *rand.Rand { return rand.New(rand.NewPCG(1, 2)) }
	if _, err := PartitionLazy(IID{}, ds, 0, rng()); err == nil {
		t.Error("n=0 should fail")
	}
	if _, err := PartitionLazy(IID{}, ds, 6, rng()); err == nil {
		t.Error("n > len should fail")
	}
	if _, err := PartitionLazy(Dirichlet{Alpha: -1}, ds, 2, rng()); err == nil {
		t.Error("negative alpha should fail")
	}
	if _, err := PartitionLazy(Quantity{Sigma: -1}, ds, 2, rng()); err == nil {
		t.Error("negative sigma should fail")
	}
	for _, p := range []Partitioner{IID{}, Dirichlet{Alpha: 1}, Quantity{Sigma: 1}} {
		if _, err := PartitionLazy(p, hugeDataset{ds}, 2, rng()); err == nil {
			t.Errorf("%s: more than MaxInt32 samples should fail", p.Name())
		}
	}
}

// TestSynthLabelMatchesSample pins the Labeler fast path against the
// rendering path.
func TestSynthLabelMatchesSample(t *testing.T) {
	ds := NewSynthCustom("label-check", 7, 1, 4, 4, 29, 3)
	for i := 0; i < ds.Len(); i++ {
		_, want := ds.Sample(i)
		if got := ds.Label(i); got != want {
			t.Fatalf("Label(%d) = %d, Sample label = %d", i, got, want)
		}
	}
}

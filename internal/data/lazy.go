package data

import (
	"fmt"
	"math"
	rand "math/rand/v2"
	"sort"
)

// LazyPartition is the deferred form of a Partitioner's result: it performs
// every keyed draw the eager Partition would — permutations, Dirichlet
// proportions, log-normal weights, rebalancing — once, up front, but stores
// only the shuffled sample pools plus per-shard offset tables instead of n
// materialized [][]int shards. Shard(k) then reconstructs client k's exact
// eager shard on demand, without touching shards 0..k-1, so a
// million-client population costs O(samples) to describe and O(cohort) to
// materialize per round.
//
// The equivalence contract — Shard(k) == Partition(...)[k] element for
// element, for every partitioner and every population size — is pinned by
// the differential tests in lazy_test.go.
type LazyPartition struct {
	name string
	n    int
	// pools are the shuffled sample pools the policy drew (one for iid and
	// quantity, one per class for dirichlet); offsets[p] holds n+1 prefix
	// offsets, so pool p's slice of shard k is pools[p][offsets[p][k]:
	// offsets[p][k+1]]. Shard k is the concatenation of its pool slices in
	// pool order, which is exactly the eager append order.
	pools   [][]int32
	offsets [][]int32
	// lens are the final shard lengths after rebalancing.
	lens []int32
	// donated / received replay rebalanceEmpty without materializing: shard
	// k's base slice loses its donated[k] trailing elements, and an
	// originally-empty shard holds exactly the received[k] sample index
	// (-1 = none). Both are nil when no shard came up empty.
	donated  []int32
	received []int32
}

// Name labels the policy that produced the partition (e.g. "dirichlet:0.1").
func (lp *LazyPartition) Name() string { return lp.name }

// Shards returns the number of client shards n.
func (lp *LazyPartition) Shards() int { return lp.n }

// ShardLen returns shard k's size without materializing it.
func (lp *LazyPartition) ShardLen(k int) int { return int(lp.lens[k]) }

// Shard materializes client k's index shard, identical to the eager
// Partition result. The caller owns the returned slice.
func (lp *LazyPartition) Shard(k int) []int {
	base := 0
	for p := range lp.pools {
		base += int(lp.offsets[p][k+1] - lp.offsets[p][k])
	}
	out := make([]int, 0, max(base, 1))
	for p, pool := range lp.pools {
		for _, v := range pool[lp.offsets[p][k]:lp.offsets[p][k+1]] {
			out = append(out, int(v))
		}
	}
	if lp.donated != nil && lp.donated[k] > 0 {
		out = out[:len(out)-int(lp.donated[k])]
	}
	if lp.received != nil && lp.received[k] >= 0 {
		out = append(out, int(lp.received[k]))
	}
	return out
}

// Stats summarizes the shard sizes without materializing any shard.
func (lp *LazyPartition) Stats() (minLen, maxLen int, mean float64) {
	minLen = math.MaxInt
	total := 0
	for _, l := range lp.lens {
		if int(l) < minLen {
			minLen = int(l)
		}
		if int(l) > maxLen {
			maxLen = int(l)
		}
		total += int(l)
	}
	if lp.n == 0 {
		return 0, 0, 0
	}
	return minLen, maxLen, float64(total) / float64(lp.n)
}

// elementAt returns shard k's base element at position pos (pool
// concatenation order, before rebalancing edits).
func (lp *LazyPartition) elementAt(k, pos int) int32 {
	for p, pool := range lp.pools {
		span := int(lp.offsets[p][k+1] - lp.offsets[p][k])
		if pos < span {
			return pool[int(lp.offsets[p][k])+pos]
		}
		pos -= span
	}
	panic("data: lazy partition rebalance position out of range")
}

// rebalance replays rebalanceEmpty on the offset tables: the same
// lowest-indexed-largest donor gives its current last element to each empty
// shard in index order, recorded as (donated count, received sample) edits
// instead of slice mutations.
func (lp *LazyPartition) rebalance() {
	empty := false
	for _, l := range lp.lens {
		if l == 0 {
			empty = true
			break
		}
	}
	if !empty {
		return
	}
	baseLens := append([]int32(nil), lp.lens...)
	lp.donated = make([]int32, lp.n)
	lp.received = make([]int32, lp.n)
	for i := range lp.received {
		lp.received[i] = -1
	}
	for i := 0; i < lp.n; i++ {
		if lp.lens[i] > 0 {
			continue
		}
		donor, best := -1, int32(1)
		for j := range lp.lens {
			if lp.lens[j] > best {
				donor, best = j, lp.lens[j]
			}
		}
		if donor < 0 {
			continue // nothing to donate; caller guaranteed len ≥ n, unreachable
		}
		pos := int(baseLens[donor] - 1 - lp.donated[donor])
		lp.received[i] = lp.elementAt(donor, pos)
		lp.donated[donor]++
		lp.lens[donor]--
		lp.lens[i] = 1
	}
}

// LazyPartitioner is implemented by partitioners that can build the deferred
// form directly from their keyed stream. All built-in policies qualify;
// PartitionLazy falls back to eager materialization for any that do not.
type LazyPartitioner interface {
	Partitioner
	PartitionLazy(ds Dataset, n int, rng *rand.Rand) (*LazyPartition, error)
}

// PartitionLazy resolves p's partition in deferred form. Policies
// implementing LazyPartitioner consume exactly the rng draws their eager
// Partition would, so the two forms describe the same population bit for
// bit; other policies are materialized eagerly and wrapped, preserving
// correctness at eager memory cost.
func PartitionLazy(p Partitioner, ds Dataset, n int, rng *rand.Rand) (*LazyPartition, error) {
	if lazy, ok := p.(LazyPartitioner); ok {
		return lazy.PartitionLazy(ds, n, rng)
	}
	parts, err := p.Partition(ds, n, rng)
	if err != nil {
		return nil, err
	}
	pool := make([]int32, 0, ds.Len())
	offsets := make([]int32, n+1)
	lens := make([]int32, n)
	for k, shard := range parts {
		for _, v := range shard {
			pool = append(pool, int32(v))
		}
		offsets[k+1] = int32(len(pool))
		lens[k] = int32(len(shard))
	}
	return &LazyPartition{
		name: p.Name(), n: n,
		pools: [][]int32{pool}, offsets: [][]int32{offsets}, lens: lens,
	}, nil
}

// toInt32 narrows an index slice for compact pool storage.
func toInt32(idx []int) []int32 {
	out := make([]int32, len(idx))
	for i, v := range idx {
		out[i] = int32(v)
	}
	return out
}

// PartitionLazy stores the single permutation and slices it by offsets.
func (IID) PartitionLazy(ds Dataset, n int, rng *rand.Rand) (*LazyPartition, error) {
	if err := checkPartitionArgs(ds, n); err != nil {
		return nil, err
	}
	pool := toInt32(rng.Perm(ds.Len()))
	per, rem := ds.Len()/n, ds.Len()%n
	offsets := make([]int32, n+1)
	lens := make([]int32, n)
	for k := 0; k < n; k++ {
		size := per
		if k < rem {
			size++
		}
		lens[k] = int32(size)
		offsets[k+1] = offsets[k] + int32(size)
	}
	return &LazyPartition{
		name: IID{}.Name(), n: n,
		pools: [][]int32{pool}, offsets: [][]int32{offsets}, lens: lens,
	}, nil
}

// PartitionLazy keeps one shuffled pool and offset row per class; the draws
// (per-class shuffle, Dirichlet proportions, apportionment, rebalancing)
// mirror the eager Partition operation for operation.
func (d Dirichlet) PartitionLazy(ds Dataset, n int, rng *rand.Rand) (*LazyPartition, error) {
	if err := checkPartitionArgs(ds, n); err != nil {
		return nil, err
	}
	if d.Alpha <= 0 {
		return nil, fmt.Errorf("data: dirichlet alpha must be > 0, got %g", d.Alpha)
	}
	byClass, order := classIndex(ds)
	lp := &LazyPartition{name: d.Name(), n: n, lens: make([]int32, n)}
	for _, y := range order {
		idx := byClass[y]
		rng.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
		props := dirichletDraw(rng, d.Alpha, n)
		counts := apportion(props, len(idx))
		offsets := make([]int32, n+1)
		for c, k := range counts {
			offsets[c+1] = offsets[c] + int32(k)
			lp.lens[c] += int32(k)
		}
		lp.pools = append(lp.pools, toInt32(idx))
		lp.offsets = append(lp.offsets, offsets)
	}
	lp.rebalance()
	return lp, nil
}

// PartitionLazy draws the weights then the permutation, in the eager order,
// and stores the permutation sliced by the apportioned counts.
func (q Quantity) PartitionLazy(ds Dataset, n int, rng *rand.Rand) (*LazyPartition, error) {
	if err := checkPartitionArgs(ds, n); err != nil {
		return nil, err
	}
	if q.Sigma < 0 {
		return nil, fmt.Errorf("data: quantity sigma must be ≥ 0, got %g", q.Sigma)
	}
	counts := apportion(quantityProps(rng, q.Sigma, n), ds.Len())
	pool := toInt32(rng.Perm(ds.Len()))
	offsets := make([]int32, n+1)
	lens := make([]int32, n)
	for k, c := range counts {
		lens[k] = int32(c)
		offsets[k+1] = offsets[k] + int32(c)
	}
	lp := &LazyPartition{
		name: q.Name(), n: n,
		pools: [][]int32{pool}, offsets: [][]int32{offsets}, lens: lens,
	}
	lp.rebalance()
	return lp, nil
}

var (
	_ LazyPartitioner = IID{}
	_ LazyPartitioner = Dirichlet{}
	_ LazyPartitioner = Quantity{}
)

// classIndex groups the dataset's sample indices by label, with the labels
// in sorted order — the shared first step of both Dirichlet forms.
func classIndex(ds Dataset) (byClass map[int][]int, order []int) {
	byClass = make(map[int][]int)
	for i := 0; i < ds.Len(); i++ {
		y := sampleLabel(ds, i)
		if _, ok := byClass[y]; !ok {
			order = append(order, y)
		}
		byClass[y] = append(byClass[y], i)
	}
	sort.Ints(order)
	return byClass, order
}

// sampleLabel reads sample i's label, through the Labeler fast path when the
// dataset offers one — label-skew partitioning over a procedural
// million-sample dataset must not render every image just to learn its
// class.
func sampleLabel(ds Dataset, i int) int {
	if l, ok := ds.(Labeler); ok {
		return l.Label(i)
	}
	_, y := ds.Sample(i)
	return y
}

package data

import (
	"fmt"
	rand "math/rand/v2"
)

// Reference partitioners: the eager algorithms every policy ran before the
// deferred LazyPartition became the only production form, retained verbatim
// so TestLazyShardMatchesEager can assert that Shard(k) reproduces them
// element for element. They must not be "simplified" — their value is being
// the fixed point the production path is measured against.

// refPartition runs the eager reference algorithm of the built-in policy p.
func refPartition(p Partitioner, ds Dataset, n int, rng *rand.Rand) ([][]int, error) {
	switch p := p.(type) {
	case IID:
		return refIIDPartition(ds, n, rng)
	case Dirichlet:
		return refDirichletPartition(p, ds, n, rng)
	case Quantity:
		return refQuantityPartition(p, ds, n, rng)
	}
	panic(fmt.Sprintf("data: no reference partitioner for %T", p))
}

// refIIDPartition permutes the index space and slices it into near-equal
// shards.
func refIIDPartition(ds Dataset, n int, rng *rand.Rand) ([][]int, error) {
	if err := checkPartitionArgs(ds, n); err != nil {
		return nil, err
	}
	perm := rng.Perm(ds.Len())
	per, rem := ds.Len()/n, ds.Len()%n
	out := make([][]int, n)
	off := 0
	for i := range out {
		size := per
		if i < rem {
			size++
		}
		out[i] = append([]int(nil), perm[off:off+size]...)
		off += size
	}
	return out, nil
}

// refDirichletPartition splits each class's samples by Dirichlet-drawn
// proportions, then rebalances so every client ends up with at least one
// sample.
func refDirichletPartition(d Dirichlet, ds Dataset, n int, rng *rand.Rand) ([][]int, error) {
	if err := checkPartitionArgs(ds, n); err != nil {
		return nil, err
	}
	if d.Alpha <= 0 {
		return nil, fmt.Errorf("data: dirichlet alpha must be > 0, got %g", d.Alpha)
	}
	byClass, order := classIndex(ds)
	out := make([][]int, n)
	for _, y := range order {
		idx := byClass[y]
		rng.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
		props := dirichletDraw(rng, d.Alpha, n)
		counts := apportion(props, len(idx))
		off := 0
		for c, k := range counts {
			out[c] = append(out[c], idx[off:off+k]...)
			off += k
		}
	}
	refRebalanceEmpty(out)
	return out, nil
}

// refQuantityPartition draws per-client log-normal weights, apportions the
// index space by them, and slices a random permutation accordingly.
func refQuantityPartition(q Quantity, ds Dataset, n int, rng *rand.Rand) ([][]int, error) {
	if err := checkPartitionArgs(ds, n); err != nil {
		return nil, err
	}
	if q.Sigma < 0 {
		return nil, fmt.Errorf("data: quantity sigma must be ≥ 0, got %g", q.Sigma)
	}
	counts := apportion(quantityProps(rng, q.Sigma, n), ds.Len())
	perm := rng.Perm(ds.Len())
	out := make([][]int, n)
	off := 0
	for i, k := range counts {
		out[i] = append([]int(nil), perm[off:off+k]...)
		off += k
	}
	refRebalanceEmpty(out)
	return out, nil
}

// refRebalanceEmpty moves one sample from the currently largest shard into
// each empty shard, so every client can train. Deterministic: the donor is
// the lowest-indexed largest shard, and the moved sample is its last
// element.
func refRebalanceEmpty(parts [][]int) {
	for i := range parts {
		if len(parts[i]) > 0 {
			continue
		}
		donor, best := -1, 1
		for j := range parts {
			if len(parts[j]) > best {
				donor, best = j, len(parts[j])
			}
		}
		if donor < 0 {
			continue // nothing to donate; caller guaranteed len ≥ n, unreachable
		}
		last := len(parts[donor]) - 1
		parts[i] = append(parts[i], parts[donor][last])
		parts[donor] = parts[donor][:last]
	}
}

package data

import (
	"fmt"
	"math"
	rand "math/rand/v2"
	"sort"
	"strconv"
	"strings"
)

// Partitioner is a partitioning policy: it splits a dataset's index space
// [0, ds.Len()) into n disjoint client shards that together cover every
// sample exactly once. It is how a simulated FL population decides who owns
// which data.
//
// Contract:
//
//   - Every index appears in exactly one shard (disjointness + coverage).
//   - Every shard is non-empty; PartitionLazy rebalances if a draw would
//     leave a client with no data (an empty shard cannot train).
//   - The result depends only on (ds.Len(), labels, n, rng state), so a
//     fixed seed reproduces the same population bit for bit.
//
// The interface is sealed to the built-in policies (IID, Dirichlet,
// Quantity). PartitionLazy is the one way to run a policy, and
// LazyPartition.Shard is the one way to materialize a shard.
type Partitioner interface {
	// Name labels the policy for logs and reports (e.g. "dirichlet:0.1").
	Name() string
	// draw consumes rng and returns the policy's partition in deferred
	// form, before rebalancing. ds and n have passed checkPartitionArgs.
	draw(ds Dataset, n int, rng *rand.Rand) (*LazyPartition, error)
}

// NewPartitioner resolves a partitioning policy from its textual spec:
//
//	iid               equal-size random shards (remainders distributed)
//	dirichlet[:a]     label skew: per class, client shares ~ Dirichlet(a·1);
//	                  a defaults to 0.5, smaller a = more skew
//	quantity[:s]      size skew: shard sizes ~ LogNormal(0, s); s defaults
//	                  to 0.5, larger s = more unequal shards
func NewPartitioner(spec string) (Partitioner, error) {
	name, arg, hasArg := strings.Cut(spec, ":")
	parse := func(def float64) (float64, error) {
		if !hasArg {
			return def, nil
		}
		v, err := strconv.ParseFloat(arg, 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			return 0, fmt.Errorf("data: partitioner %q: bad parameter %q (want a finite number)", spec, arg)
		}
		return v, nil
	}
	switch name {
	case "iid":
		if hasArg {
			return nil, fmt.Errorf("data: partitioner iid takes no parameter, got %q", spec)
		}
		return IID{}, nil
	case "dirichlet":
		a, err := parse(0.5)
		if err != nil {
			return nil, err
		}
		if a <= 0 {
			return nil, fmt.Errorf("data: dirichlet alpha must be > 0, got %g", a)
		}
		return Dirichlet{Alpha: a}, nil
	case "quantity":
		s, err := parse(0.5)
		if err != nil {
			return nil, err
		}
		if s < 0 {
			return nil, fmt.Errorf("data: quantity sigma must be ≥ 0, got %g", s)
		}
		return Quantity{Sigma: s}, nil
	default:
		return nil, fmt.Errorf("data: unknown partitioner %q (want iid, dirichlet[:alpha], quantity[:sigma])", spec)
	}
}

// PartitionerNames lists the textual specs NewPartitioner accepts.
func PartitionerNames() []string { return []string{"iid", "dirichlet:<alpha>", "quantity:<sigma>"} }

// checkPartitionArgs validates the preconditions shared by every policy.
// Shards store sample indices as int32, so a dataset beyond math.MaxInt32
// samples is rejected before any draw allocates.
func checkPartitionArgs(ds Dataset, n int) error {
	if n <= 0 {
		return fmt.Errorf("data: cannot partition into %d shards", n)
	}
	if ds.Len() > math.MaxInt32 {
		return fmt.Errorf("data: cannot partition %s (%d samples): more than %d samples",
			ds.Name(), ds.Len(), math.MaxInt32)
	}
	if n > ds.Len() {
		return fmt.Errorf("data: cannot partition %s (%d samples) across %d clients: need at least one sample per client",
			ds.Name(), ds.Len(), n)
	}
	return nil
}

// IID shards uniformly at random into near-equal sizes: the first
// len%n shards receive one extra sample, so no index is ever dropped.
type IID struct{}

var _ Partitioner = IID{}

// Name returns "iid".
func (IID) Name() string { return "iid" }

// draw permutes the index space and cuts it into near-equal runs.
func (IID) draw(ds Dataset, n int, rng *rand.Rand) (*LazyPartition, error) {
	per, rem := int32(ds.Len()/n), ds.Len()%n
	lens := make([]int32, n)
	for k := range lens {
		lens[k] = per
		if k < rem {
			lens[k]++
		}
	}
	return onePool(rng.Perm(ds.Len()), lens), nil
}

// Dirichlet is the standard label-skew partitioner of the non-IID FL
// literature (Hsu et al., arXiv:1909.06335): for every class, the class's
// samples are divided among the n clients according to proportions drawn
// from Dirichlet(Alpha·1ₙ). Small Alpha (e.g. 0.1) concentrates each class
// on a few clients; large Alpha approaches IID.
type Dirichlet struct {
	Alpha float64
}

var _ Partitioner = Dirichlet{}

// Name returns "dirichlet:<alpha>".
func (d Dirichlet) Name() string { return fmt.Sprintf("dirichlet:%g", d.Alpha) }

// draw shuffles each class's samples and splits them by Dirichlet-drawn
// proportions, keeping one pool and offset row per class. Shard k is its
// run of every class in label order.
func (d Dirichlet) draw(ds Dataset, n int, rng *rand.Rand) (*LazyPartition, error) {
	if d.Alpha <= 0 {
		return nil, fmt.Errorf("data: dirichlet alpha must be > 0, got %g", d.Alpha)
	}
	byClass, order := classIndex(ds)
	lp := &LazyPartition{n: n, lens: make([]int32, n)}
	for _, y := range order {
		idx := byClass[y]
		rng.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
		counts := apportion(dirichletDraw(rng, d.Alpha, n), len(idx))
		offsets := make([]int32, n+1)
		for c, k := range counts {
			offsets[c+1] = offsets[c] + int32(k)
			lp.lens[c] += int32(k)
		}
		lp.pools = append(lp.pools, toInt32(idx))
		lp.offsets = append(lp.offsets, offsets)
	}
	return lp, nil
}

// Quantity is the size-skew partitioner: shard sizes are proportional to
// LogNormal(0, Sigma) draws (class balance stays roughly IID). Sigma = 0
// degenerates to equal sizes; Sigma ≈ 1 yields order-of-magnitude spread.
type Quantity struct {
	Sigma float64
}

var _ Partitioner = Quantity{}

// Name returns "quantity:<sigma>".
func (q Quantity) Name() string { return fmt.Sprintf("quantity:%g", q.Sigma) }

// draw draws per-client log-normal weights, apportions the index space by
// them, and cuts a random permutation into runs of those sizes.
func (q Quantity) draw(ds Dataset, n int, rng *rand.Rand) (*LazyPartition, error) {
	if q.Sigma < 0 {
		return nil, fmt.Errorf("data: quantity sigma must be ≥ 0, got %g", q.Sigma)
	}
	counts := apportion(quantityProps(rng, q.Sigma, n), ds.Len())
	return onePool(rng.Perm(ds.Len()), toInt32(counts)), nil
}

// quantityProps draws n LogNormal(0, sigma) size weights and normalizes
// them into shares. When a huge sigma overflows (or underflows) their sum,
// the largest draw takes the whole share — the limit of the normalized
// weights as sigma grows — and rebalancing then gives every other client
// one sample.
func quantityProps(rng *rand.Rand, sigma float64, n int) []float64 {
	exps := make([]float64, n)
	props := make([]float64, n)
	total := 0.0
	for i := range props {
		exps[i] = rng.NormFloat64() * sigma
		props[i] = math.Exp(exps[i])
		total += props[i]
	}
	if total == 0 || math.IsInf(total, 1) {
		best := 0
		for i, e := range exps {
			if e > exps[best] {
				best = i
			}
		}
		clear(props)
		props[best] = 1
		return props
	}
	for i := range props {
		props[i] /= total
	}
	return props
}

// dirichletDraw samples a probability vector from Dirichlet(alpha·1ₙ) via
// normalized Gamma(alpha, 1) draws.
func dirichletDraw(rng *rand.Rand, alpha float64, n int) []float64 {
	g := make([]float64, n)
	total := 0.0
	for i := range g {
		g[i] = gammaDraw(rng, alpha)
		total += g[i]
	}
	if total == 0 || math.IsInf(total, 1) { // underflow for tiny alpha, overflow for huge
		for i := range g {
			g[i] = 1 / float64(n)
		}
		return g
	}
	for i := range g {
		g[i] /= total
	}
	return g
}

// gammaDraw samples Gamma(alpha, 1) by Marsaglia–Tsang squeeze, with the
// standard U^(1/alpha) boost for alpha < 1.
func gammaDraw(rng *rand.Rand, alpha float64) float64 {
	if alpha < 1 {
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		return gammaDraw(rng, alpha+1) * math.Pow(u, 1/alpha)
	}
	d := alpha - 1.0/3
	c := 1 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// apportion converts fractional proportions into integer counts summing
// exactly to total (largest-remainder method, ties broken by index).
func apportion(props []float64, total int) []int {
	counts := make([]int, len(props))
	type frac struct {
		i int
		f float64
	}
	rem := total
	fracs := make([]frac, len(props))
	for i, p := range props {
		exact := p * float64(total)
		counts[i] = int(math.Floor(exact))
		rem -= counts[i]
		fracs[i] = frac{i: i, f: exact - math.Floor(exact)}
	}
	sort.SliceStable(fracs, func(a, b int) bool { return fracs[a].f > fracs[b].f })
	for k := 0; k < rem; k++ {
		counts[fracs[k%len(fracs)].i]++
	}
	return counts
}

package tensor

import (
	"math/bits"
	"sync"

	"github.com/oasisfl/oasis/internal/obs"
)

// The workspace arena: size-bucketed sync.Pools of float64 slices. Hot-path
// code (conv lowering workspaces, per-round gradient scratch) allocates
// tensors whose lifetime it fully controls from here via NewPooled and hands
// the backing array back with Release, so per-round allocation volume stops
// scaling with batch·OH·OW and the garbage collector sees a near-constant
// live set at 1000-client populations.
//
// Buckets hold slices with capacity 2^b ≤ cap < 2^(b+1); a Get reslices a
// recycled array to the requested length and zeroes it (ClonePooled skips the
// zeroing, as its copy overwrites every element), so a pooled tensor is
// indistinguishable from a New one. A Get for n floats draws from the bucket
// whose arrays all have cap ≥ n, and the arena allocates cap = 2^⌈log₂ n⌉, so
// a released arena array serves the next request of its size. An exact-capacity
// array (New, Clone) released here is filed one bucket down and only serves
// smaller requests: buffers that are released every round should come from
// NewPooled/ClonePooled.

// minPoolBucket is the smallest pooled capacity class (2^10 floats = 8 KiB);
// smaller buffers are cheaper to allocate than to pool.
const minPoolBucket = 10

var bufPools [64]sync.Pool

// Arena observability: hit rate (hits / (hits+misses)) is the number that
// tells whether pooling is actually absorbing a workload's allocation
// volume. Counters self-gate on the obs session (one atomic load when
// disabled), so they are safe on this hot path. Sub-bucket requests (< 8 KiB)
// are never pooled and are not counted.
var (
	obsPoolHit     = obs.NewCounter("tensor_pool_hit_total", "arena Gets served from a recycled array")
	obsPoolMiss    = obs.NewCounter("tensor_pool_miss_total", "pool-eligible arena Gets that had to allocate")
	obsPoolRelease = obs.NewCounter("tensor_pool_release_total", "arrays returned to the arena")
)

// getBuf returns a []float64 of length n, reusing a pooled array when one is
// available. The slice is zeroed when zero is set; a caller that overwrites
// every element passes false and may see a recycled array's old contents.
func getBuf(n int, zero bool) []float64 {
	if n == 0 {
		return nil
	}
	b := bits.Len(uint(n - 1)) // bucket whose arrays have cap ≥ n
	if b >= minPoolBucket {
		if v := bufPools[b].Get(); v != nil {
			obsPoolHit.Inc()
			s := v.([]float64)[:n]
			if zero {
				clear(s)
			}
			return s
		}
		obsPoolMiss.Inc()
	}
	return make([]float64, n, 1<<b)
}

// putBuf recycles a buffer into its size bucket. The caller must not retain
// any reference (including subslices or Reshape views) to s afterwards.
func putBuf(s []float64) {
	c := cap(s)
	if c < 1<<minPoolBucket {
		return
	}
	b := bits.Len(uint(c)) - 1 // bucket whose arrays have cap ≥ 2^b
	obsPoolRelease.Inc()
	bufPools[b].Put(s[:0:c])
}

// NewPooled returns a zero-filled tensor like New, drawing the backing array
// from the workspace arena. The caller owns the tensor's lifetime and should
// hand the array back with Release once no reference to it remains; a pooled
// tensor that is never released is simply collected like any other.
func NewPooled(shape ...int) *Tensor {
	n := checkShape(shape)
	return &Tensor{shape: append([]int(nil), shape...), data: getBuf(n, true)}
}

// ClonePooled returns a deep copy like Clone, with the backing array drawn
// from the workspace arena. Use it for copies whose lifetime the caller
// controls (upload payloads, per-round snapshots) so they can be handed back
// with Release instead of feeding the collector.
func (t *Tensor) ClonePooled() *Tensor {
	c := &Tensor{shape: append([]int(nil), t.shape...), data: getBuf(len(t.data), false)}
	copy(c.data, t.data)
	return c
}

// Release returns t's backing array to the workspace arena and clears t so
// any later use panics instead of aliasing recycled memory. It must only be
// called by the tensor's owner, and only when no view of the data (Reshape,
// RowView, Data) is still live. Releasing a nil or already-released tensor is
// a no-op, so cleanup paths need no guards.
func (t *Tensor) Release() {
	if t == nil || t.data == nil {
		return
	}
	putBuf(t.data)
	t.data = nil
	t.shape = nil
}

package fl

// Roster is the population a Server samples from. The server draws client
// *indices* over [0, NumClients()) and instantiates only the round's
// cohort, so a roster may hold a handful of in-process clients
// (MemoryRoster), whatever peers are connected (TCPServer), or millions of
// enrolled devices that exist only as descriptors until sampled — the
// cross-device regime the OASIS paper assumes.
//
// Lifecycle per round, all on the server goroutine:
//
//	n       := NumClients()
//	indices := sampler.SampleIndices(round, n, m, NumSamples, rng)
//	cohort  := Lease(round, indices)     // instantiate, in index order
//	...dispatch / observe / aggregate / apply step...
//	Release(round, cohort)               // after the step; buffers may be recycled
//
// Lease must return one Client per index, in the given order — the server
// preserves that order for dispatch, observation, and aggregation, which is
// what makes a run a function of the seed alone. An index names the same
// client for the whole round: NumSamples and Lease resolve it against the
// population NumClients counted. Release is the bookend: implementations
// return pooled buffers there, or keep clients resident when cross-round
// state (training rng position, stateful defenses) must survive to the next
// Lease of the same index.
type Roster interface {
	// NumClients returns the population size the round samples from.
	NumClients() int
	// NumSamples reports client i's local dataset size for size-weighted
	// sampling (0 means "weigh as one sample"). Must not instantiate the
	// client.
	NumSamples(i int) int
	// Lease instantiates the cohort for the given round, one Client per
	// index, in index-argument order.
	Lease(round int, indices []int) ([]Client, error)
	// Release ends the cohort's round. The server calls it exactly once per
	// successful Lease, after the aggregated step has been applied.
	Release(round int, clients []Client)
}

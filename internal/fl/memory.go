package fl

import (
	"fmt"
	"sync"
)

// MemoryRoster is the in-process transport: clients are direct references.
// It backs simulations, tests and benchmarks, and is safe for concurrent
// registration. Registration is append-only, so index i always names the
// i-th client added.
type MemoryRoster struct {
	mu      sync.Mutex
	clients []Client
}

var _ Roster = (*MemoryRoster)(nil)

// NewMemoryRoster constructs an empty roster.
func NewMemoryRoster() *MemoryRoster { return &MemoryRoster{} }

// Add registers a client.
func (r *MemoryRoster) Add(c Client) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.clients = append(r.clients, c)
}

// NumClients returns how many clients have been added.
func (r *MemoryRoster) NumClients() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.clients)
}

// NumSamples reports client i's local dataset size when it is a
// SizedClient, and 0 otherwise.
func (r *MemoryRoster) NumSamples(i int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if sc, ok := r.clients[i].(SizedClient); ok {
		return sc.NumSamples()
	}
	return 0
}

// Lease returns the clients at indices, in order.
func (r *MemoryRoster) Lease(_ int, indices []int) ([]Client, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return leaseFrom(r.clients, indices)
}

// Release is a no-op: in-process clients stay registered.
func (r *MemoryRoster) Release(int, []Client) {}

// leaseFrom resolves indices against a client list.
func leaseFrom(clients []Client, indices []int) ([]Client, error) {
	out := make([]Client, len(indices))
	for k, i := range indices {
		if i < 0 || i >= len(clients) {
			return nil, fmt.Errorf("fl: lease index %d outside roster of %d", i, len(clients))
		}
		out[k] = clients[i]
	}
	return out, nil
}

package fl

import (
	"fmt"
	"testing"
)

// TestTCPServerClientsSorted pins the determinism fix in TCPServer's roster:
// the population NumClients snapshots must come back sorted by client ID
// regardless of registration (map) order, because Lease resolves the
// sampler's indices against it — with a map-ordered roster the same rng
// draws would select different clients on every run. Registering many
// clients makes an accidentally-sorted map iteration astronomically
// unlikely.
func TestTCPServerClientsSorted(t *testing.T) {
	s := &TCPServer{clients: make(map[string]*remoteClient)}
	const n = 64
	// Insert in reverse order so insertion order is also wrong.
	for i := n - 1; i >= 0; i-- {
		id := fmt.Sprintf("client-%03d", i)
		s.clients[id] = &remoteClient{id: id}
	}
	if got := s.NumClients(); got != n {
		t.Fatalf("NumClients() = %d, want %d", got, n)
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	lease := func() []Client {
		t.Helper()
		got, err := s.Lease(0, all)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	got := lease()
	for i, c := range got {
		want := fmt.Sprintf("client-%03d", i)
		if c.ID() != want {
			t.Fatalf("Lease()[%d] = %q, want %q (roster must be sorted by ID)", i, c.ID(), want)
		}
	}

	// A peer that registers between NumClients and Lease (it sorts first,
	// so it would shift every index) must not change the leased cohort.
	s.clients["client-"] = &remoteClient{id: "client-"}
	for i, c := range lease() {
		if c != got[i] {
			t.Fatalf("late registration shifted Lease()[%d] from %q to %q", i, got[i].ID(), c.ID())
		}
	}
	if _, err := s.Lease(0, []int{n}); err == nil {
		t.Error("Lease past the snapshot succeeded")
	}
	if got := s.NumClients(); got != n+1 {
		t.Errorf("NumClients() after late registration = %d, want %d", got, n+1)
	}
}

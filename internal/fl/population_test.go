package fl

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"github.com/oasisfl/oasis/internal/nn"
)

// TestMemoryRosterHistoryDigest pins a MemoryRoster-driven run to History
// digests captured before MemoryRoster became index-leased, so the roster
// every example and CLI uses keeps selecting — and training — exactly the
// clients it always did, under both samplers and any worker count.
func TestMemoryRosterHistoryDigest(t *testing.T) {
	want := map[string]string{
		"uniform": "db48c51b0656e17b9681eadea16d990802f551f3b3101c3e40ebba56cf6ed59d",
		"size":    "224dee96a525451608a5e26d654754e721cabda50156639b20e2e2ede33352d1",
	}
	for _, name := range SamplerNames() {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				roster := NewMemoryRoster()
				for i, s := range testShards(t, 8) {
					roster.Add(NewLocalClient(fmt.Sprintf("c%d", i), s, 8, nn.RandSource(70, uint64(i))))
				}
				server := NewServer(ServerConfig{
					Rounds: 5, ClientsPerRound: 3, LearningRate: 0.05, Seed: 31, Workers: workers,
				}, testModel(nil), roster)
				sampler, err := NewSamplerByName(name)
				if err != nil {
					t.Fatal(err)
				}
				server.Sampler = sampler
				hist, err := server.Run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				b, err := json.Marshal(hist)
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(b)
				if got := hex.EncodeToString(sum[:]); got != want[name] {
					t.Errorf("History digest = %s, want %s", got, want[name])
				}
			})
		}
	}
}

package campaign_test

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"crosslayer/internal/campaign"
)

// TestCellKeyDigest pins every cell identity of the full default plan
// under every deployment dataset: the SHA-256 of all Cell.Key strings,
// one per line, in plan order. Seeds and cache addresses (CellKey)
// derive from these keys, so a change to the digest means every
// earlier result, checkpoint and golden was computed under other
// identities.
func TestCellKeyDigest(t *testing.T) {
	var all []string
	for _, d := range campaign.Deployments() {
		all = append(all, d.Key)
	}
	cells, err := campaign.CellsAtRank(campaign.Filter{Deployments: all}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 302400 {
		t.Fatalf("%d cells, want 302400 (100800 default cells × 3 datasets)", len(cells))
	}
	h := sha256.New()
	for _, c := range cells {
		fmt.Fprintln(h, c.Key())
	}
	const want = "e082f8247c1b9cb18d66fd12c8566396b04c20d03a9cff6854223062e5dd4845"
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Fatalf("cell key digest %s, want %s", got, want)
	}
}

package campaign_test

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"crosslayer/internal/campaign"
	"crosslayer/internal/measure"
)

// memCellCache is a mutex-map CellCache counting hits and stores.
type memCellCache struct {
	mu     sync.Mutex
	m      map[string]campaign.CellResult
	hits   int
	stores int
}

func newMemCellCache() *memCellCache {
	return &memCellCache{m: make(map[string]campaign.CellResult)}
}

func (c *memCellCache) Lookup(key string) (campaign.CellResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.m[key]
	if ok {
		c.hits++
	}
	return r, ok
}

func (c *memCellCache) Store(key string, r campaign.CellResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = r
	c.stores++
}

func (c *memCellCache) counts() (hits, stores int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.stores
}

// cacheTestConfig is a small two-axis sweep used by the cache tests.
func cacheTestConfig(parallelism int) campaign.Config {
	return campaign.Config{
		Exec: measure.Config{Seed: 11, Parallelism: parallelism},
		Filter: campaign.Filter{
			Methods:     []string{"hijack"},
			Victims:     []string{"web", "smtp"},
			Profiles:    []string{"bind", "dnsmasq"},
			ChainDepths: []string{"0"},
			Placements:  []string{"stub"},
		},
		Trials:      2,
		LatticeRank: 1,
	}
}

// TestCampaignCachedRunByteIdentical: a warm-cache run recomputes
// nothing and its results — raw cells AND rendered matrix bytes — are
// identical to the cold run's, at parallelism 1 and N.
func TestCampaignCachedRunByteIdentical(t *testing.T) {
	uncached, err := campaign.Run(cacheTestConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	ref := section(uncached, "matrix").Text()

	for _, p := range []int{1, 4} {
		cache := newMemCellCache()
		cfg := cacheTestConfig(p)
		cfg.Cache = cache
		cold, err := campaign.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if hits, stores := cache.counts(); hits != 0 || stores != len(cold) {
			t.Fatalf("p=%d cold run: %d hits, %d stores, want 0 and %d", p, hits, stores, len(cold))
		}
		warm, err := campaign.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if hits, stores := cache.counts(); hits != len(cold) || stores != len(cold) {
			t.Fatalf("p=%d warm run: %d hits (want %d), %d new stores (want 0)",
				p, hits, len(cold), stores-len(cold))
		}
		if !reflect.DeepEqual(cold, uncached) {
			t.Fatalf("p=%d cold cached run diverges from uncached reference", p)
		}
		if !reflect.DeepEqual(warm, uncached) {
			t.Fatalf("p=%d warm cached run diverges from uncached reference", p)
		}
		if got := section(warm, "matrix").Text(); got != ref {
			t.Fatalf("p=%d warm matrix bytes diverge:\n--- reference\n%s\n--- warm\n%s", p, ref, got)
		}
	}
}

// cancelAfterStores is a memCellCache that cancels its sweep once n
// cells have been stored.
type cancelAfterStores struct {
	*memCellCache
	n      int
	cancel context.CancelFunc
}

func (c cancelAfterStores) Store(key string, r campaign.CellResult) {
	c.memCellCache.Store(key, r)
	if _, stores := c.counts(); stores == c.n {
		c.cancel()
	}
}

// TestCampaignCacheStoresBeforeCancellation: every cell computed
// before a sweep is cancelled is in the cache, so the resumed sweep
// recomputes only the cells that never ran and still returns the
// results of an uninterrupted one.
func TestCampaignCacheStoresBeforeCancellation(t *testing.T) {
	ref, err := campaign.Run(cacheTestConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	const stored = 3
	if len(ref) <= stored {
		t.Fatalf("sweep has %d cells, need more than %d", len(ref), stored)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cache := newMemCellCache()
	cfg := cacheTestConfig(1)
	cfg.Cache = cancelAfterStores{cache, stored, cancel}
	if _, err := campaign.RunContext(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, stores := cache.counts(); stores != stored {
		t.Fatalf("stored %d cells before the cancellation took effect, want %d", stores, stored)
	}

	cfg.Cache = cache
	got, err := campaign.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if hits, stores := cache.counts(); hits != stored || stores != len(ref) {
		t.Fatalf("resumed sweep: %d hits, %d stores; want %d hits and %d stores in all", hits, stores, stored, len(ref))
	}
	if !reflect.DeepEqual(got, ref) {
		t.Fatal("resumed sweep diverges from an uninterrupted one")
	}
}

// TestCampaignCacheSharedAcrossOverlappingSweeps: two filtered sweeps
// sharing cells recompute only the non-overlapping ones, and the
// shared cells come back byte-identical to an independent run of the
// second sweep.
func TestCampaignCacheSharedAcrossOverlappingSweeps(t *testing.T) {
	cache := newMemCellCache()

	first := cacheTestConfig(2)
	first.Filter.Profiles = []string{"bind"}
	first.Cache = cache
	if _, err := campaign.Run(first); err != nil {
		t.Fatal(err)
	}
	_, storesAfterFirst := cache.counts()

	second := cacheTestConfig(2)
	second.Cache = cache // full two-profile sweep: bind cells overlap
	got, err := campaign.Run(second)
	if err != nil {
		t.Fatal(err)
	}
	hits, stores := cache.counts()
	if hits != storesAfterFirst {
		t.Fatalf("overlap recomputed: %d hits, want %d (every first-sweep cell)", hits, storesAfterFirst)
	}
	if newStores := stores - storesAfterFirst; newStores != len(got)-hits {
		t.Fatalf("stored %d new cells, want %d", newStores, len(got)-hits)
	}

	independent := cacheTestConfig(2)
	ref, err := campaign.Run(independent)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Fatal("cache-assembled sweep diverges from independent run")
	}
}

// TestCampaignArenaPoolReuseInvisible: runs sharing an ArenaPool must
// produce exactly the results of runs that don't — worker reuse is an
// allocator optimisation, never an observable.
func TestCampaignArenaPoolReuseInvisible(t *testing.T) {
	ref, err := campaign.Run(cacheTestConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	arenas := &campaign.ArenaPool{}
	for i := 0; i < 3; i++ {
		cfg := cacheTestConfig(2)
		cfg.Arenas = arenas
		got, err := campaign.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("run %d with pooled arenas diverges from reference", i)
		}
	}
}

package server

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/testutil/trap"
)

// TestCancelledQueryIsNotCached: a query whose verification the deadline
// cut short fails with the deadline's error on the flat, the sharded and
// the cached engine, and the cache stores nothing. An empty answer set
// here, once cached, would be replayed to every later query until the next
// mutation: a client that disconnects mid-verify would poison the cache.
func TestCancelledQueryIsNotCached(t *testing.T) {
	ds, q := trap.Dataset()
	ctx := context.Background()
	flat, err := engine.Open(ctx, ds, engine.WithSpec("ggsx"))
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := engine.OpenSharded(ctx, ds, 2, engine.WithSpec("ggsx"))
	if err != nil {
		t.Fatal(err)
	}
	cached := NewCached(flat, CacheConfig{})
	for _, tc := range []struct {
		name string
		eng  engine.Querier
	}{{"flat", flat}, {"sharded", sharded}, {"cached", cached}} {
		dctx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
		res, err := tc.eng.Query(dctx, q)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s: err = %v, want the deadline's error", tc.name, err)
			if err == nil {
				t.Logf("%s: %d candidates, answers %v", tc.name, len(res.Candidates), res.Answers)
			}
		}
	}
	if st := cached.CacheStats(); st.Entries != 0 {
		t.Errorf("the cache stored %d entries for a cancelled query, want none", st.Entries)
	}
}

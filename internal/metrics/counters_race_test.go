package metrics

import (
	"sync"
	"testing"
)

// TestRecoveryCountersConcurrent hammers the counters the way a real run
// does: one set of goroutines plays the harness/kernel (incrementing on the
// simulated main timeline), another plays background cross-check reporters
// (snapshotting and stringifying concurrently). Run under -race — the CI test
// step does — this pins the counters' concurrency contract.
func TestRecoveryCountersConcurrent(t *testing.T) {
	c := NewRecoveryCounters()
	const writers, perWriter = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				c.PreservesStaged.Add(1)
				c.PreservesCommitted.Add(1)
				c.ChecksumsVerified.Add(3)
				c.ChecksumMismatches.Add(1)
			}
		}()
	}
	// Cross-check-style readers run during the writes.
	stop := make(chan struct{})
	var rg sync.WaitGroup
	for r := 0; r < 2; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					// Snapshot is not a consistent cut, so the ordering
					// invariant is checked on loads taken in the reverse of
					// the writers' order: committed first, then staged.
					committed := c.PreservesCommitted.Load()
					if staged := c.PreservesStaged.Load(); committed > staged {
						t.Error("committed overtook staged")
						return
					}
					_ = c.Snapshot()
					_ = c.String()
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	rg.Wait()

	want := int64(writers * perWriter)
	snap := c.Snapshot()
	if snap["preserves_staged"] != want || snap["preserves_committed"] != want ||
		snap["checksums_verified"] != 3*want || snap["checksum_mismatches"] != want {
		t.Fatalf("lost updates: %s", c)
	}
}

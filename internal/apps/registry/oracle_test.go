package registry

import (
	"slices"
	"testing"

	"phoenix/internal/metrics"
	"phoenix/internal/shard"
)

// TestOraclesReportMissingCounter: a counter key the machine-counter
// snapshot does not emit fails the clauses that read it with a violation
// naming the key, instead of reading as 0; a full snapshot of a quiet run
// reports nothing.
func TestOraclesReportMissingCounter(t *testing.T) {
	full := metrics.NewRecoveryCounters().Snapshot()
	lacking := metrics.NewRecoveryCounters().Snapshot()
	delete(lacking, "checksum_mismatches")
	const missing = `counter "checksum_mismatches" missing from the machine-counter snapshot`

	for _, c := range []struct {
		name   string
		oracle Oracle
		obs    func(map[string]int64) *Observation
		want   string
	}{
		{"accounting", accountingOracle{}, func(m map[string]int64) *Observation {
			return &Observation{App: "kvstore", Counters: m}
		}, missing},
		{"shard", shardOracle{}, func(m map[string]int64) *Observation {
			return &Observation{App: "kvstore", Shard: &shard.Report{Nodes: []shard.NodeReport{{Node: 3, Counters: m}}}}
		}, "node 3: " + missing},
	} {
		if v := c.oracle.Check(c.obs(full)); len(v) != 0 {
			t.Errorf("%s: a full snapshot reported %q", c.name, v)
		}
		if v := c.oracle.Check(c.obs(lacking)); !slices.Equal(v, []string{c.want}) {
			t.Errorf("%s: a snapshot without checksum_mismatches reported %q, want [%q]", c.name, v, c.want)
		}
	}
}

package shard_test

import (
	"bytes"
	"testing"

	"phoenix/internal/recovery"
	"phoenix/internal/shard"
)

// TestShardReportByteIdentity is the golden determinism check at the Run
// level: the identical configuration and schedule must produce byte-identical
// JSON, and a different seed must not.
func TestShardReportByteIdentity(t *testing.T) {
	run := func(seed int64) []byte {
		cfg, mk, sched := smokeConfig(seed, recovery.ModePhoenix)
		rep, err := shard.Run(cfg, mk, sched)
		if err != nil {
			t.Fatal(err)
		}
		j, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	a, b := run(3), run(3)
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed runs diverged:\n%s\n%s", a, b)
	}
	if c := run(4); bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical reports — the seed is not reaching the run")
	}
}

package main

import (
	"fmt"
	"time"

	"phoenix/internal/core"
	"phoenix/internal/costmodel"
	"phoenix/internal/recovery"
	"phoenix/internal/shard"
	"phoenix/internal/workload"
)

// pinnedModel is costmodel.Default() as this benchmark was calibrated
// against. Every modelled metric is a function of these constants, so the
// benchmark refuses to run when they change: a modelled gain must come from
// the code, and a change to the model is a change to the benchmark.
var pinnedModel = costmodel.Model{
	ExecBase:           1020 * time.Microsecond,
	PhoenixFixed:       180 * time.Microsecond,
	PTEMove:            26 * time.Nanosecond,
	PageCopy:           400 * time.Nanosecond,
	DiskSeqReadRate:    500 << 20,
	DiskSeqWriteRate:   400 << 20,
	DiskLatency:        100 * time.Microsecond,
	UnmarshalPerByte:   9 * time.Nanosecond,
	UnmarshalPerObject: 350 * time.Nanosecond,
	MarshalPerByte:     4 * time.Nanosecond,
	LogReplayPerRecord: 2 * time.Microsecond,
	ForkPerPage:        150 * time.Nanosecond,
	ChecksumPerPage:    1500 * time.Nanosecond,
	DirtyScanPerPage:   5 * time.Nanosecond,
	FreezeFixed:        3 * time.Millisecond,
	RequestBase:        12 * time.Microsecond,
	MemOp:              60 * time.Nanosecond,
	ByteTouch:          1 * time.Nanosecond,
	GCSweepPerChunk:    40 * time.Nanosecond,
	ComputePerUnit:     25 * time.Nanosecond,
	UnsafeMark:         120 * time.Nanosecond,

	DomainBegin:            300 * time.Nanosecond,
	DomainCoWPerPage:       450 * time.Nanosecond,
	DomainRestorePerPage:   420 * time.Nanosecond,
	MicrorebootFixed:       25 * time.Microsecond,
	ComponentReinitPerUnit: 800 * time.Nanosecond,

	MigrateRoundFixed:   8 * time.Microsecond,
	MigratePerPage:      900 * time.Nanosecond,
	MigrateCutoverFixed: 20 * time.Microsecond,

	SnapshotCommitFixed: 2 * time.Microsecond,
	SnapshotCopyPerPage: 500 * time.Nanosecond,
	ReaderSpawn:         2 * time.Microsecond,
	SnapshotReadCost:    3 * time.Microsecond,
	PreserveWorkerSpawn: 5 * time.Microsecond,
}

// pinnedGrace is core.SecondFailureGrace as calibrated: kv-recover idles past
// it before every crash, and shard-churn never kills a slot twice within it.
const pinnedGrace = 10 * time.Second

func checkModel(m costmodel.Model, grace time.Duration) error {
	if m != pinnedModel {
		return fmt.Errorf("costmodel.Default() differs from the model pinned in _bench/check.go:\n  have %+v\n  pin  %+v", m, pinnedModel)
	}
	if grace != pinnedGrace {
		return fmt.Errorf("core.SecondFailureGrace is %v, the benchmark is pinned to %v", grace, pinnedGrace)
	}
	return nil
}

func checkPinned() error { return checkModel(costmodel.Default(), core.SecondFailureGrace) }

// checkPhoenixRung reports an error unless exactly one crash happened between
// the two harness snapshots and it recovered by a PHOENIX restart with no
// fallback of any kind.
func checkPhoenixRung(before, after recovery.Stats) error {
	switch {
	case after.Failures-before.Failures != 1:
		return fmt.Errorf("%d crashes, want 1", after.Failures-before.Failures)
	case after.PhoenixRestarts-before.PhoenixRestarts != 1:
		return fmt.Errorf("%d PHOENIX restarts, want 1", after.PhoenixRestarts-before.PhoenixRestarts)
	case after.UnsafeFallbacks != before.UnsafeFallbacks,
		after.GraceFallbacks != before.GraceFallbacks,
		after.RecoveryFaultFallbacks != before.RecoveryFaultFallbacks,
		after.IntegrityFallbacks != before.IntegrityFallbacks,
		after.BootFailures != before.BootFailures,
		after.OtherRestarts != before.OtherRestarts:
		return fmt.Errorf("recovery left the PHOENIX rung (unsafe=%d grace=%d fault=%d integrity=%d boot=%d other=%d)",
			after.UnsafeFallbacks-before.UnsafeFallbacks, after.GraceFallbacks-before.GraceFallbacks,
			after.RecoveryFaultFallbacks-before.RecoveryFaultFallbacks, after.IntegrityFallbacks-before.IntegrityFallbacks,
			after.BootFailures-before.BootFailures, after.OtherRestarts-before.OtherRestarts)
	}
	return nil
}

// checkKeys compares a store dump against the keys the benchmark wrote, each
// holding its version-1 value. It returns how many are missing or wrong and
// up to three of them.
func checkKeys(dump core.StateDump, keys []string) (lost int, sample []string) {
	for _, k := range keys {
		if v, ok := dump[k]; !ok || v != string(workload.Value(k, 1, valueSize)) {
			lost++
			if len(sample) < 3 {
				sample = append(sample, k)
			}
		}
	}
	return lost, sample
}

// opCheck counts the request-level failures the kv workloads check: requests
// the harness did not answer, and reads that missed. Every key a generator
// reads was stored before the read, so every read must hit.
type opCheck struct{ unanswered, misses int }

func (o *opCheck) note(req *workload.Request, ok, eff bool) {
	switch {
	case !ok:
		o.unanswered++
	case req.Op == workload.OpRead && !eff:
		o.misses++
	}
}

func (o opCheck) report(res *result) {
	if o.unanswered > 0 {
		res.problem(o.unanswered, fmt.Sprintf("%d requests not answered", o.unanswered))
	}
	if o.misses > 0 {
		res.problem(o.misses, fmt.Sprintf("%d reads of stored keys missed", o.misses))
	}
}

// checkCount reports an error unless the dump holds exactly want keys.
func checkCount(dump core.StateDump, want int) error {
	if len(dump) != want {
		return fmt.Errorf("final dump holds %d keys, want %d", len(dump), want)
	}
	return nil
}

// checkShard lists the fabric oracles a shard-churn round violated: lost
// acknowledged writes, requests served by a non-owner, kills never recovered
// to effective service, and snapshot reads that saw a post-commit write.
func checkShard(rep shard.Report) []string {
	var out []string
	if rep.LostAcked != 0 {
		out = append(out, fmt.Sprintf("%d acknowledged writes lost (%v)", rep.LostAcked, rep.LostKeys))
	}
	if rep.NonOwnerServes != 0 {
		out = append(out, fmt.Sprintf("%d requests served by a non-owner", rep.NonOwnerServes))
	}
	if rep.Unrecovered != 0 {
		out = append(out, fmt.Sprintf("%d kills never recovered to effective service", rep.Unrecovered))
	}
	if rep.SnapshotStale != 0 {
		out = append(out, fmt.Sprintf("%d stale snapshot batches", rep.SnapshotStale))
	}
	return out
}

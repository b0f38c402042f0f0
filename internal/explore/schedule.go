// Package explore implements deterministic-simulation testing (DST) for the
// PHOENIX recovery stack: from a single int64 seed it generates a random
// fault schedule — preserve-path operation failures, Byzantine bit flips,
// synthetic process kills, supervisor-calming idle periods, and (in shard
// mode, on the serving fabric) replica kills, drains, network partitions,
// link faults, and live shard moves — runs the schedule against a registry
// application, and checks the invariant oracles (registry.OraclesFor for a
// single harness, registry.ShardOracles for the fabric). A violated oracle
// triggers deterministic shrinking to a minimal failing schedule and a
// replayable JSON artifact; Replay reproduces the violation byte-for-byte.
//
// Everything downstream of the seed is deterministic: one seeded RNG
// generates the schedule, the run itself rides the repo's simulated clocks,
// and outcome JSON uses fixed field order, so the campaign can require
// byte-identical double runs of every seed.
package explore

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"phoenix/internal/apps/registry"
	"phoenix/internal/kernel"
	"phoenix/internal/netsim"
)

// Event kinds. Single-harness schedules use arm/disarm/kill/calm with At as
// a request index; shard schedules use kill/drain/partition/shardmove with
// AtUs as a fabric-clock instant against a (Shard, Replica) slot, and
// linkfault as an up-front arming.
const (
	// KindArm arms one preserve-path fault site (Site, Skip) just before
	// request At; the fault strikes the next recovery that reaches the site.
	KindArm = "arm"
	// KindDisarm retires the schedule's arming of Site just before request
	// At, so a fault a cycle left cold cannot strike a later recovery.
	// Generate never draws it.
	KindDisarm = "disarm"
	// KindKill crashes the process (single) or one replica (shard).
	KindKill = "kill"
	// KindCalm advances the simulated clock by DurUs before request At, long
	// enough for the supervisor's stable period to de-escalate the ladder.
	KindCalm = "calm"
	// KindDrain and KindPartition open a [AtUs, AtUs+DurUs) window against
	// replica (Shard, Replica) (shard mode only).
	KindDrain     = "drain"
	KindPartition = "partition"
	// KindLinkFault arms one netsim.link.* site with Skip (shard mode only).
	KindLinkFault = "linkfault"
	// KindComponentKill arms a one-shot crash attributed to the component
	// named by Site, just before request At. The crash fires mid-request —
	// after a small write to the component's state — so it exercises the
	// sub-process rungs: rewind-domain discard and component microreboot.
	KindComponentKill = "componentkill"
	// KindDomainFault arms the application bug named by Site just before
	// request At: a crash mid-request *without* component attribution, which
	// a rewind floor must roll back and the ladder must then escalate past
	// the microreboot rung.
	KindDomainFault = "domainfault"
	// KindShardMove live-migrates replica (Shard, Replica) to a spare at
	// AtUs, and KindRingChange rotates Shard's ring placement (shard mode
	// only). Shard-mode kills reuse KindKill with (Shard, Replica) targets.
	KindShardMove  = "shardmove"
	KindRingChange = "ringchange"
	// KindSnapshotRead runs one concurrent-read batch at AtUs against
	// (Shard, Replica) (shard mode): the target commits an MVCC snapshot and
	// serves the default batch size off it at Readers fan-out. The
	// stale-snapshot oracle must stay at zero.
	KindSnapshotRead = "snapshotread"
)

// Event is one element of a fault schedule. Field meaning depends on Kind;
// unused fields stay zero so the JSON encoding is compact and stable.
type Event struct {
	Kind  string `json:"kind"`
	At    int    `json:"at,omitempty"`
	AtUs  int64  `json:"at_us,omitempty"`
	Site  string `json:"site,omitempty"`
	Skip  int    `json:"skip,omitempty"`
	DurUs int64  `json:"dur_us,omitempty"`
	// Shard/Replica target shard-mode events.
	Shard   int `json:"shard,omitempty"`
	Replica int `json:"replica,omitempty"`
	// Readers is the snapshot-read fan-out (snapshotread only).
	Readers int `json:"readers,omitempty"`
}

func (e Event) String() string {
	switch e.Kind {
	case KindArm:
		return fmt.Sprintf("arm(%s+%d)@%d", e.Site, e.Skip, e.At)
	case KindDisarm:
		return fmt.Sprintf("disarm(%s)@%d", e.Site, e.At)
	case KindKill:
		if e.AtUs > 0 {
			return fmt.Sprintf("kill(%d/%d)@%dµs", e.Shard, e.Replica, e.AtUs)
		}
		return fmt.Sprintf("kill@%d", e.At)
	case KindShardMove:
		return fmt.Sprintf("shardmove(%d/%d)@%dµs", e.Shard, e.Replica, e.AtUs)
	case KindRingChange:
		return fmt.Sprintf("ringchange(%d)@%dµs", e.Shard, e.AtUs)
	case KindCalm:
		return fmt.Sprintf("calm(%dµs)@%d", e.DurUs, e.At)
	case KindDrain, KindPartition:
		return fmt.Sprintf("%s(%d/%d)@[%d,%d)µs", e.Kind, e.Shard, e.Replica, e.AtUs, e.AtUs+e.DurUs)
	case KindLinkFault:
		return fmt.Sprintf("linkfault(%s+%d)", e.Site, e.Skip)
	case KindComponentKill:
		return fmt.Sprintf("componentkill(%s)@%d", e.Site, e.At)
	case KindDomainFault:
		return fmt.Sprintf("domainfault(%s)@%d", e.Site, e.At)
	case KindSnapshotRead:
		return fmt.Sprintf("snapshotread(%d/%d x%d)@%dµs", e.Shard, e.Replica, e.Readers, e.AtUs)
	}
	return e.Kind
}

// Schedule is one generated fault script: the search space element a seed
// maps to and the unit shrinking minimizes. Mode "single" drives one
// recovery.Harness request by request; mode "shard" replays the events
// against the serving fabric.
type Schedule struct {
	Seed int64  `json:"seed"`
	App  string `json:"app"`
	Mode string `json:"mode"`
	// Steps is the single-mode request count.
	Steps int `json:"steps,omitempty"`
	// Shards, Replicas and Spares shape the shard-mode fabric: Shards
	// replica groups of Replicas each, plus a cold spare pool migrations
	// draw from.
	Replicas int `json:"replicas,omitempty"`
	Shards   int `json:"shards,omitempty"`
	Spares   int `json:"spares,omitempty"`
	// DisableChecksums runs the harness with preserve_exec's integrity
	// checksums off — the configuration under which an injected bit flip
	// commits silently, which the accounting oracle must flag.
	DisableChecksums bool `json:"disable_checksums,omitempty"`
	// Domains runs the harness with rewind domains on and the supervisor
	// floor at the rewind rung, so recovery climbs rewind → microreboot →
	// process ladder. Old schedules decode with Domains false and behave
	// exactly as before.
	Domains bool `json:"domains,omitempty"`
	// Rung pins the single-mode harness shape: "" is the supervised ladder,
	// the only shape Generate draws; "rewind" and "microreboot" floor it at
	// that rung; "phoenix", "builtin" and "vanilla" run unsupervised.
	Rung   string  `json:"rung,omitempty"`
	Events []Event `json:"events"`
}

// kindRank orders same-instant events deterministically: armings land before
// the kill whose recovery they strike; calms settle the supervisor first, and
// disarmings retire old armings before new ones land.
func kindRank(kind string) int {
	switch kind {
	case KindCalm, KindDisarm:
		return 0
	case KindArm:
		return 1
	case KindComponentKill:
		return 2
	case KindDomainFault:
		return 3
	case KindLinkFault:
		return 4
	case KindDrain:
		return 5
	case KindPartition:
		return 6
	case KindKill:
		return 7
	case KindShardMove:
		return 8
	case KindRingChange:
		return 9
	case KindSnapshotRead:
		return 10
	}
	return 11
}

func sortEvents(evs []Event) {
	sort.SliceStable(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.AtUs != b.AtUs {
			return a.AtUs < b.AtUs
		}
		if kindRank(a.Kind) != kindRank(b.Kind) {
			return kindRank(a.Kind) < kindRank(b.Kind)
		}
		if a.Site != b.Site {
			return a.Site < b.Site
		}
		if a.Shard != b.Shard {
			return a.Shard < b.Shard
		}
		if a.Replica != b.Replica {
			return a.Replica < b.Replica
		}
		return a.Skip < b.Skip
	})
}

// componentGraph lists each application's rebootable components, in declared
// order, for the component-kill draw. The table mirrors the apps' own
// ComponentApp declarations (TestComponentGraphMatchesApps keeps them in
// sync); apps without an entry never draw component kills.
var componentGraph = map[string][]string{
	"webcache-varnish": {"lru", "stats"},
	"webcache-squid":   {"lru", "stats"},
	"lsmdb":            {"memtable", "sstreader"},
	"boost":            {"preds", "grads"},
}

// midRequestFaults names, per application, one scripted bug that crashes
// mid-request on temporary state only — safe to fire at any ladder rung. The
// domain-fault draw arms it so schedules exercise partial-request rollback
// (and, for non-rewindable apps, the fall-through past the sub-process
// rungs). kvstore uses R3 (null deref on a request-scoped object), not R1:
// R1's overflow-sized allocation touches a page set large enough that a
// rewind-domain discard costs more than a whole preserve_exec, which is a
// real property of huge-footprint faults but the wrong vector for measuring
// the rewind rung.
var midRequestFaults = map[string]string{
	"kvstore":          "R3",
	"lsmdb":            "L1",
	"boost":            "X1",
	"particle":         "VP1",
	"webcache-varnish": "VA1",
	"webcache-squid":   "S3",
}

// Faults names app's scripted mid-request bug and the root of its component
// graph, whose crash cascades through the graph ("" where it has none).
func Faults(app string) (bug, root string) {
	if comps := componentGraph[app]; len(comps) > 0 {
		root = comps[0]
	}
	return midRequestFaults[app], root
}

// mix is a splitmix64 finalizer: math/rand sources seeded with *adjacent*
// integers emit correlated first draws, which would skew a sweep of seeds
// 1..N toward the same schedule shapes. Scrambling the seed decorrelates
// consecutive campaign seeds while keeping the seed → schedule map pure.
func mix(seed int64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// Generate maps one seed to one fault schedule. app restricts the choice to
// one registry application ("" draws one at random). The mapping is pure:
// the same (seed, app) pair always yields the identical schedule.
func Generate(seed int64, app string) Schedule {
	rng := rand.New(rand.NewSource(mix(seed)))
	names := registry.Names()
	// Always burn the app draw so forcing an app does not shift every later
	// draw (the -app flag then explores the same schedules, same apps aside).
	pick := names[rng.Intn(len(names))]
	if app == "" {
		app = pick
	}
	if rng.Intn(4) == 0 {
		return generateCluster(rng, seed, app)
	}
	return generateSingle(rng, seed, app)
}

func generateSingle(rng *rand.Rand, seed int64, app string) Schedule {
	sch := Schedule{
		Seed:  seed,
		App:   app,
		Mode:  "single",
		Steps: 60 + rng.Intn(140),
		// Roughly one seed in six runs with integrity verification off: often
		// enough that every sweep keeps the violation → shrink → replay
		// pipeline exercised, rare enough that most seeds search the
		// checksummed configuration.
		DisableChecksums: rng.Intn(6) == 0,
	}
	sites := kernel.PreserveSiteSpecs()

	kills := 1 + rng.Intn(4)
	for i := 0; i < kills; i++ {
		sch.Events = append(sch.Events, Event{Kind: KindKill, At: 5 + rng.Intn(sch.Steps-5)})
	}
	arms := rng.Intn(4)
	for i := 0; i < arms; i++ {
		s := sites[rng.Intn(len(sites))]
		sch.Events = append(sch.Events, Event{
			Kind: KindArm,
			At:   rng.Intn(sch.Steps),
			Site: s.ID,
			Skip: rng.Intn(s.MaxSkip + 1),
		})
	}
	if rng.Intn(2) == 0 {
		sch.Events = append(sch.Events, Event{
			Kind:  KindCalm,
			At:    5 + rng.Intn(sch.Steps-5),
			DurUs: (30*time.Second + time.Duration(rng.Intn(60))*time.Second).Microseconds(),
		})
	}
	// Half the seeds run with rewind domains on (floor at the rewind rung);
	// the other half keep the process-level floor, so both ladder shapes stay
	// under search.
	sch.Domains = rng.Intn(2) == 0
	// Draw counts and positions unconditionally so forcing an app never
	// changes the schedule shape (TestGenerateForcedApp): apps without a
	// component graph spend the same draws on extra mid-request bugs.
	comps := componentGraph[app]
	ckills := rng.Intn(3)
	for i := 0; i < ckills; i++ {
		at := 5 + rng.Intn(sch.Steps-5)
		pick := rng.Intn(2)
		if len(comps) > 0 {
			sch.Events = append(sch.Events, Event{
				Kind: KindComponentKill, At: at, Site: comps[pick%len(comps)],
			})
		} else {
			sch.Events = append(sch.Events, Event{
				Kind: KindDomainFault, At: at, Site: midRequestFaults[app],
			})
		}
	}
	if rng.Intn(3) == 0 {
		sch.Events = append(sch.Events, Event{
			Kind: KindDomainFault,
			At:   5 + rng.Intn(sch.Steps-5),
			Site: midRequestFaults[app],
		})
	}
	sortEvents(sch.Events)
	return sch
}

// generateCluster draws a one-shard fabric schedule: a replica group of
// three with no spares, under kills, a drain, a partition, link faults and
// snapshot reads.
func generateCluster(rng *rand.Rand, seed int64, app string) Schedule {
	sch := Schedule{Seed: seed, App: app, Mode: "shard", Shards: 1, Replicas: 3}
	sys, _ := fabricSystem(seed, app, sch.Shards)
	runUs := sys.Profile.RunFor.Microseconds()
	// At most one kill per replica: a second kill on the same replica at
	// these time scales lands inside the PHOENIX grace window and only
	// measures the fallback path (shard.DefaultSchedule's rationale).
	order := rng.Perm(sch.Replicas)
	kills := 1 + rng.Intn(2)
	for i := 0; i < kills; i++ {
		sch.Events = append(sch.Events, Event{
			Kind:    KindKill,
			Replica: order[i],
			AtUs:    runUs/10 + rng.Int63n(runUs*7/10),
		})
	}
	if rng.Intn(2) == 0 {
		from := runUs/10 + rng.Int63n(runUs/2)
		sch.Events = append(sch.Events, Event{
			Kind:    KindDrain,
			Replica: order[sch.Replicas-1],
			AtUs:    from,
			DurUs:   runUs/20 + rng.Int63n(runUs/5),
		})
	}
	if rng.Intn(2) == 0 {
		from := runUs/10 + rng.Int63n(runUs/2)
		sch.Events = append(sch.Events, Event{
			Kind:    KindPartition,
			Replica: order[0],
			AtUs:    from,
			DurUs:   runUs/20 + rng.Int63n(runUs/5),
		})
	}
	linkSites := []string{netsim.SiteLinkDrop, netsim.SiteLinkDup, netsim.SiteLinkDelay}
	faults := rng.Intn(3)
	for i := 0; i < faults; i++ {
		sch.Events = append(sch.Events, Event{
			Kind: KindLinkFault,
			Site: linkSites[rng.Intn(len(linkSites))],
			Skip: rng.Intn(200),
		})
	}
	// Snapshot-read draws come last so their addition never shifts the draws
	// above (older seeds keep their kill/drain/partition shapes).
	snaps := rng.Intn(3)
	for i := 0; i < snaps; i++ {
		sch.Events = append(sch.Events, Event{
			Kind:    KindSnapshotRead,
			Replica: rng.Intn(sch.Replicas),
			AtUs:    runUs/10 + rng.Int63n(runUs*7/10),
			Readers: snapshotFanouts[rng.Intn(len(snapshotFanouts))],
		})
	}
	sortEvents(sch.Events)
	return sch
}

// snapshotFanouts are the reader widths the snapshot-read draw picks from —
// the same 1/4/16 ladder the concurrency campaign measures.
var snapshotFanouts = []int{1, 4, 16}

// GenerateShard maps one seed to one shard-mode schedule: replica kills,
// live shard moves, and ring changes landing mid-traffic on a sharded
// fabric. It is a separate entry point rather than a Generate arm because
// Generate's draw sequence is pinned by golden schedule tests; the extra
// mix round keeps its schedules decorrelated from Generate's at the same
// seed. app restricts the draw to one shardable application ("" draws one
// at random). The mapping is pure: same (seed, app), same schedule.
func GenerateShard(seed int64, app string) Schedule {
	rng := rand.New(rand.NewSource(mix(mix(seed))))
	names := registry.ShardNames()
	// Burn the app draw unconditionally, as Generate does, so forcing an app
	// never shifts the later draws.
	pick := names[rng.Intn(len(names))]
	if app == "" {
		app = pick
	}
	sch := Schedule{
		Seed:     seed,
		App:      app,
		Mode:     "shard",
		Shards:   2 + rng.Intn(3),
		Replicas: 1 + rng.Intn(2),
		Spares:   1 + rng.Intn(2),
	}
	runUs := shardRunFor.Microseconds()
	window := func() int64 { return runUs/10 + rng.Int63n(runUs*7/10) }
	kills := 1 + rng.Intn(2)
	for i := 0; i < kills; i++ {
		sch.Events = append(sch.Events, Event{
			Kind:    KindKill,
			Shard:   rng.Intn(sch.Shards),
			Replica: rng.Intn(sch.Replicas),
			AtUs:    window(),
		})
	}
	moves := 1 + rng.Intn(2)
	for i := 0; i < moves; i++ {
		sch.Events = append(sch.Events, Event{
			Kind:    KindShardMove,
			Shard:   rng.Intn(sch.Shards),
			Replica: rng.Intn(sch.Replicas),
			AtUs:    window(),
		})
	}
	if rng.Intn(2) == 0 {
		sch.Events = append(sch.Events, Event{
			Kind:  KindRingChange,
			Shard: rng.Intn(sch.Shards),
			AtUs:  window(),
		})
	}
	// Snapshot-read draws come last (see generateCluster) so older seeds keep
	// their kill/move/ring-change shapes.
	snaps := rng.Intn(3)
	for i := 0; i < snaps; i++ {
		sch.Events = append(sch.Events, Event{
			Kind:    KindSnapshotRead,
			Shard:   rng.Intn(sch.Shards),
			Replica: rng.Intn(sch.Replicas),
			AtUs:    window(),
			Readers: snapshotFanouts[rng.Intn(len(snapshotFanouts))],
		})
	}
	sortEvents(sch.Events)
	return sch
}

// Package registry enumerates every application in internal/apps as a
// recovery.AppFactory, sized for fault campaigns: small enough that a full
// probe matrix stays fast, large enough that every app preserves multiple
// ranges. Campaign tests and the experiments registry share it so "all
// apps" means the same thing everywhere.
package registry

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"phoenix/internal/apps/boost"
	"phoenix/internal/apps/kvstore"
	"phoenix/internal/apps/lsmdb"
	"phoenix/internal/apps/particle"
	"phoenix/internal/apps/webcache"
	"phoenix/internal/faultinject"
	"phoenix/internal/recovery"
	"phoenix/internal/shard"
	"phoenix/internal/workload"
)

// StepGen drives the compute apps (boost, particle) one step per request.
// The apps ignore keys; each step's key carries its number so a fabric's
// key-slot routing spreads the steps over a replica group.
type StepGen struct{ seq uint64 }

func (g *StepGen) Next() *workload.Request {
	g.seq++
	return &workload.Request{Seq: g.seq, Op: workload.OpRead, Key: fmt.Sprintf("step%d", g.seq)}
}

// Clone implements workload.Generator; the step stream is seed-independent.
func (g *StepGen) Clone(seed int64) workload.Generator { return &StepGen{} }

// Factories returns one campaign-sized factory per application, keyed by the
// system name used throughout the experiments.
func Factories(seed int64) map[string]recovery.AppFactory {
	return map[string]recovery.AppFactory{
		"kvstore": func(inj *faultinject.Injector) (recovery.App, workload.Generator) {
			kv := kvstore.New(kvstore.Config{Cleanup: true}, inj)
			gen := workload.NewYCSB(workload.YCSBConfig{
				Seed: seed, Records: 200, ReadFrac: 0.8, InsertFrac: 0.2,
				ValueSize: 64, ZipfianKeys: true,
			})
			return kv, gen
		},
		"lsmdb": func(inj *faultinject.Injector) (recovery.App, workload.Generator) {
			db := lsmdb.New(lsmdb.Config{MemtableThreshold: 1 << 20}, inj)
			return db, workload.NewFillSeq(64)
		},
		"webcache-varnish": func(inj *faultinject.Injector) (recovery.App, workload.Generator) {
			web := workload.NewWeb(workload.WebConfig{Seed: seed, URLs: 100, MeanSize: 2 << 10})
			c := webcache.New(webcache.Config{
				Flavor: webcache.FlavorVarnish, CapacityBytes: 8 << 20,
			}, web, inj)
			return c, web
		},
		"webcache-squid": func(inj *faultinject.Injector) (recovery.App, workload.Generator) {
			web := workload.NewWeb(workload.WebConfig{Seed: seed, URLs: 100, MeanSize: 2 << 10})
			c := webcache.New(webcache.Config{
				Flavor: webcache.FlavorSquid, CapacityBytes: 8 << 20,
			}, web, inj)
			return c, web
		},
		"boost": func(inj *faultinject.Injector) (recovery.App, workload.Generator) {
			tr := boost.New(boost.Config{Samples: 200, Features: 8, MaxIters: 256, WorkScale: 50}, inj)
			return tr, &StepGen{}
		},
		"particle": func(inj *faultinject.Injector) (recovery.App, workload.Generator) {
			s := particle.New(particle.Config{Particles: 200, Cells: 32, WorkScale: 50}, inj)
			return s, &StepGen{}
		},
	}
}

// Names returns the registered system names in deterministic order.
func Names() []string {
	names := make([]string, 0, len(Factories(0)))
	for n := range Factories(0) {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ShardNames returns the systems the sharded campaign runs: the
// key-addressed stores. The caches are read-only traffic (the lost-write
// ledger would audit nothing) and the compute apps have no keyspace to
// shard.
func ShardNames() []string { return []string{"kvstore", "lsmdb"} }

// ShardProfile returns the open-loop client profile the fabric campaigns
// drive against the named system. The stores get a Zipfian read-heavy
// keyspace large enough that each shard's arc holds real state (so
// stop-and-copy migration has something to ship), warmed before traffic,
// with read hedging on. The caches get the same web trace their factory
// wired as the origin, and the compute apps one step per request, slow
// enough that a replica's step count stays inside boost's MaxIters=256
// budget.
func ShardProfile(name string, seed int64) shard.Profile {
	switch name {
	case "kvstore", "lsmdb":
		const records, valueSize = 1024, 64
		p := shard.Profile{
			Proto: workload.NewYCSB(workload.YCSBConfig{
				Seed: seed, Records: records, ReadFrac: 0.7, InsertFrac: 0.05,
				ValueSize: valueSize, ZipfianKeys: true,
			}),
			Population: 2_000_000,
			HedgeDelay: 4 * time.Millisecond,
		}
		// Pre-populate the YCSB keyspace: the ring splits these across the
		// shards, each replica group warming exactly its own arc.
		for i := uint64(0); i < records; i++ {
			key := workload.Key(i)
			p.Warm = append(p.Warm, &workload.Request{
				Seq: i + 1, Op: workload.OpInsert, Key: key,
				Value: workload.Value(key, 1, valueSize),
			})
		}
		return p
	case "webcache-varnish", "webcache-squid":
		// Must match the factory's WebConfig: the traffic trace and the
		// cache's origin fetcher draw from the same URL population.
		web := workload.NewWeb(workload.WebConfig{Seed: seed, URLs: 100, MeanSize: 2 << 10})
		// 600ms outlives the 400ms cold boot for the first kill; a returned
		// vanilla cache refills popular URLs on demand. Arrivals 313µs apart
		// saturate one replica group; 1ms apart it keeps up.
		p := shard.Profile{Proto: web, ArrivalMean: time.Millisecond, RunFor: 600 * time.Millisecond}
		warm := web.Clone(seed + 7001)
		for i := 0; i < 300; i++ {
			p.Warm = append(p.Warm, warm.Next())
		}
		return p
	case "boost", "particle":
		return shard.Profile{
			Proto:       &StepGen{},
			ArrivalMean: 1500 * time.Microsecond,
			Timeout:     40 * time.Millisecond,
			RunFor:      400 * time.Millisecond,
		}
	}
	panic("registry: no fabric profile for system " + name)
}

// Systems bundles the applications a fabric of the given shard count runs,
// in name order, with their profiles. A sharded fabric runs the
// key-addressed stores (ShardNames). One shard is the cluster campaign's
// replica group: it runs every application, and the stores there keep a
// 600ms traffic window, long enough that a cold reboot (kvstore 300ms,
// lsmdb 120ms) completes inside it, at arrivals one group can serve.
func Systems(seed int64, shards int) []shard.System {
	names := ShardNames()
	if shards == 1 {
		names = Names()
	}
	factories := Factories(seed)
	var out []shard.System
	for _, name := range names {
		p := ShardProfile(name, seed)
		if shards == 1 && slices.Contains(ShardNames(), name) {
			p.RunFor, p.ArrivalMean = 600*time.Millisecond, 120*time.Microsecond
		}
		out = append(out, shard.System{Name: name, Factory: factories[name], Profile: p})
	}
	return out
}

package main

import (
	"fmt"
	"runtime"
	"time"

	"phoenix/internal/apps/registry"
	"phoenix/internal/faultinject"
	"phoenix/internal/recovery"
	"phoenix/internal/shard"
	"phoenix/internal/workload"
)

// shard-churn's fixed shape. Each round is one fresh fabric run.
const (
	churnShards   = 4
	churnReplicas = 2
	churnSpares   = 4
	// churnChunk is how many arrivals one host-time sample covers.
	churnChunk = 10_000
	// churnHeapAt is the arrival at which a round samples the live heap:
	// mid-round, with the whole fabric built and serving.
	churnHeapAt = 6 * churnChunk
	// churnSetups is how many more fabrics an untraced round builds, each
	// stopped churnSetupRun after its first arrival, to time set-up alone. A
	// fabric sets up in a few milliseconds, so one sample per round is too
	// few for a steady median.
	churnSetups   = 6
	churnSetupRun = time.Millisecond
)

// churnSchedule is written for a 12 s round and scaled to runFor. It kills
// one replica every 1.5 s, cycling through all eight slots, so no slot is
// killed twice in a round: a second kill inside core.SecondFailureGrace
// would leave the PHOENIX rung (README.md, lead 2). Three live moves and one
// ring change, each taking one of the four spares, land 750 ms clear of the
// kills, and a 64-read snapshot batch at four readers runs every 2 s.
func churnSchedule(runFor time.Duration) shard.Schedule {
	at := func(ms int) time.Duration { return runFor * time.Duration(ms) / 12000 }
	var s shard.Schedule
	slots := churnShards * churnReplicas
	for i := 0; i < slots; i++ {
		s.Kills = append(s.Kills, shard.Kill{At: at(500 + 1500*i), Shard: i % churnShards, Replica: i / churnShards})
	}
	for i, ms := range []int{2750, 5750, 8750} {
		s.Moves = append(s.Moves, shard.Move{At: at(ms), Shard: i + 1, Replica: i % churnReplicas})
	}
	s.RingChanges = []shard.RingChange{{At: at(10250), Shard: 0}}
	for i := 0; i < 6; i++ {
		s.SnapshotReads = append(s.SnapshotReads, shard.SnapshotRead{
			At: at(1250 + 2000*i), Shard: i % churnShards, Replica: (i / churnShards) % churnReplicas, Count: 64, Readers: 4,
		})
	}
	return s
}

// arrivals times the fabric's open-loop stream from the benchmark side. The
// frontend draws one request per arrival, in simulated-time order, so the
// wall time between every churnChunk-th draw is the host cost of simulating
// that many client requests, kills and moves included.
type arrivals struct {
	first, mark time.Time
	n           int
	perReqUs    []float64
	heap        *heapWatch
	// paused is the wall time spent sampling the heap mid-round, which the
	// round's timing leaves out.
	paused time.Duration
	rec    *recorder
}

// chunkGen is the generator the fabric's frontend clones; every clone feeds
// the same arrivals.
type chunkGen struct {
	gen workload.Generator
	a   *arrivals
}

func (g chunkGen) Next() *workload.Request {
	a := g.a
	if a.n == 0 {
		a.first = time.Now()
		a.mark = a.first
	}
	a.n++
	if a.n%churnChunk == 0 {
		now := time.Now()
		a.perReqUs = append(a.perReqUs, float64(now.Sub(a.mark))/1e3/churnChunk)
		a.mark = now
		if a.n == churnHeapAt {
			a.heap.sample()
			a.mark = time.Now()
			a.paused = a.mark.Sub(now)
		}
	}
	if a.rec != nil && a.n%sampleEvery == 0 {
		id := a.rec.begin("workload.Next", 0)
		defer a.rec.end(id, 0)
	}
	return g.gen.Next()
}

func (g chunkGen) Clone(seed int64) workload.Generator { return chunkGen{g.gen.Clone(seed), g.a} }

// runChurn is shard-churn: shard.Run over lsmdb, 4 shards × 2 replicas and 4
// spares, PHOENIX with unsafe-region checks, under an open-loop client
// population (10k requests per simulated second) and churnSchedule.
func runChurn(c config) (*result, error) {
	// A round takes about 0.7 s of host time on the reference host, so
	// --seconds buys three rounds per two seconds.
	rounds := max(3*c.seconds/2, 5)
	res := newResult()
	hw := newHeapWatch()
	var rs roundStats
	var apps []*tracedApp
	var setups, windows, cutovers, p999 []float64
	var effective, requests, retried, stale, sent, kills int
	var recoveryUs int64
	var moves, migRounds, finalDelta int
	for r := 0; r < rounds; r++ {
		traced := c.traced(r)
		seed := c.seed*1000 + int64(r)
		prof := registry.ShardProfile("lsmdb", seed)
		prof.RunFor = c.shape.churnRunFor
		// Half the profile's default arrival rate: at 20k requests per
		// simulated second the shard holding the hottest Zipfian keys
		// saturates for some seeds and requests time out. Six retries 5 ms
		// apart outlast a kill window (about 20 ms), so no client request
		// fails outright; the default three retries 1 ms apart do not, and
		// fail about 8 requests per kill (README.md, lead 3).
		prof.ArrivalMean = 100 * time.Microsecond
		prof.MaxRetries, prof.RetryDelay = 6, 5*time.Millisecond
		a := &arrivals{heap: hw}
		proto := prof.Proto
		mk := registry.Factories(seed)["lsmdb"]
		if traced {
			a.rec = c.rec
			inner := mk
			mk = func(inj *faultinject.Injector) (recovery.App, workload.Generator) {
				app, gen := inner(inj)
				w, t := traceApp(app, c.rec, sampleEvery)
				apps = append(apps, t)
				return w, gen
			}
		}
		prof.Proto = chunkGen{proto, a}
		cfg := shard.Config{
			System: "lsmdb", Shards: churnShards, Replicas: churnReplicas, Spares: churnSpares, Seed: seed,
			Recovery: recovery.Config{Mode: recovery.ModePhoenix, UnsafeRegions: true},
			Profile:  prof,
		}
		// The previous round's fabric is garbage; collect it outside the timing.
		runtime.GC()
		start := rs.begin(c)
		rep, err := shard.Run(cfg, mk, churnSchedule(c.shape.churnRunFor))
		end := time.Now()
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", r, err)
		}
		if a.n == 0 {
			return nil, fmt.Errorf("round %d: fabric drew no arrivals", r)
		}
		setups = append(setups, a.first.Sub(start).Seconds())
		rs.end(c, r, rep.Requests, end.Sub(a.first)-a.paused, a.perReqUs, 0.9)

		res.attempted += rep.Requests
		if rep.Failed > 0 {
			res.problem(rep.Failed, fmt.Sprintf("round %d: %d client requests failed after every retry", r, rep.Failed))
		}
		for _, msg := range checkShard(rep) {
			res.problem(1, fmt.Sprintf("round %d: %s", r, msg))
		}
		requests += rep.Requests
		effective += rep.Served + rep.Retried
		retried += rep.Retried
		stale += rep.Stale
		sent += rep.NetSent
		kills += rep.Kills
		p999 = append(p999, float64(rep.P999Us))
		for _, w := range rep.Windows {
			windows = append(windows, float64(w.DurUs))
		}
		for _, n := range rep.Nodes {
			recoveryUs += n.RecoveryUs
			res.values["kernel.preserves_aborted"] += float64(n.Counters["preserves_aborted"])
		}
		for _, m := range rep.MoveReports {
			if m.Completed {
				moves++
				migRounds += len(m.Rounds)
				finalDelta += m.FinalDelta
				cutovers = append(cutovers, float64(m.CutoverUs))
			}
		}
		// After the round, so the measured fabric ran exactly as before.
		for i := 0; c.rec == nil && i < churnSetups; i++ {
			s, err := churnSetup(cfg, mk, proto)
			if err != nil {
				return nil, fmt.Errorf("round %d set-up %d: %w", r, i, err)
			}
			setups = append(setups, s)
		}
	}
	rs.report(res)
	v := res.values
	v["setup_s"] = median(setups)
	v["heap_mib"] = hw.mib()
	v["sim_ops_per_s"] = float64(effective) / (time.Duration(rounds) * c.shape.churnRunFor).Seconds()
	v["sim_latency_us"] = percentile(windows, 0.5)

	v["shard.avail_sim_pct"] = 100 * float64(effective) / float64(requests)
	v["shard.p999_sim_us"] = median(p999)
	v["shard.migrate_cutover_sim_p50_us"] = percentile(cutovers, 0.5)
	v["shard.retried_frac"] = float64(retried) / float64(requests)
	v["shard.stale_frac"] = float64(stale) / float64(requests)
	v["netsim.sent_per_request"] = float64(sent) / float64(requests)
	if kills > 0 {
		v["shard.node_recovery_sim_us_mean"] = float64(recoveryUs) / float64(kills)
	}
	if moves > 0 {
		v["shard.migrate_rounds_mean"] = float64(migRounds) / float64(moves)
		v["shard.migrate_final_delta_mean"] = float64(finalDelta) / float64(moves)
	}
	if c.rec != nil {
		spanMetrics(c.rec, apps, res)
		pages := 0
		for _, a := range apps {
			if a.recoverPage > pages {
				pages = a.recoverPage
			}
		}
		if err := ladder(footprint{keys: len(registry.ShardProfile("lsmdb", c.seed).Warm) / churnShards, pages: pages}, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// churnSetup builds cfg's fabric again with a churnSetupRun arrival window and
// no schedule, and returns the time from shard.Run to the first arrival: the
// fabric's set-up (booting and warming every replica) alone.
func churnSetup(cfg shard.Config, mk recovery.AppFactory, proto workload.Generator) (float64, error) {
	a := &arrivals{}
	cfg.Profile.Proto = chunkGen{proto, a}
	cfg.Profile.RunFor = churnSetupRun
	runtime.GC()
	start := time.Now()
	if _, err := shard.Run(cfg, mk, shard.Schedule{}); err != nil {
		return 0, err
	}
	if a.n == 0 {
		return 0, fmt.Errorf("fabric drew no arrivals")
	}
	return a.first.Sub(start).Seconds(), nil
}

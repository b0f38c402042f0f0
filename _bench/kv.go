package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"phoenix/internal/apps/kvstore"
	"phoenix/internal/kernel"
	"phoenix/internal/recovery"
	"phoenix/internal/workload"
)

const (
	valueSize = 128
	// setupReps is how many times an untraced run builds its workload's
	// initial state; setup_s is the median. Set-up times on a shared host
	// swing by half within seconds, so the median needs many set-ups to
	// settle. A traced run does not report setup_s and builds once.
	setupReps = 11
	// sampleEvery is the traced-run sampling rate for per-request spans.
	sampleEvery = 64
	// idleGap is the simulated quiet time before each injected crash: rare
	// crashes, and past core.SecondFailureGrace so every crash is eligible
	// for the PHOENIX rung.
	idleGap = 11 * time.Second
)

// config is one workload run.
type config struct {
	seed    int64
	seconds int
	shape   shape
	// rec is nil on an untraced run. A traced run records spans on its even
	// rounds and leaves the odd ones untraced, which is what
	// trace.overhead_frac compares.
	rec *recorder
}

// shape sizes the workloads. fullShape is the benchmark; tests run a small
// one through the same code.
type shape struct {
	serveKeys, servePerRound                    int
	recoverKeys, recoverPerCycle, recoverCycles int
	snapKeys, snapWrites, snapPerReader         int
	churnRunFor                                 time.Duration
}

var fullShape = shape{
	serveKeys: 200_000, servePerRound: 50_000,
	recoverKeys: 100_000, recoverPerCycle: 5000, recoverCycles: 7,
	snapKeys: 100_000, snapWrites: 2000, snapPerReader: 20_000,
	churnRunFor: 12 * time.Second,
}

func (c config) traced(round int) bool { return c.rec != nil && round%2 == 0 }

// setups is how many times the run builds its initial state.
func (c config) setups() int {
	if c.rec != nil {
		return 1
	}
	return setupReps
}

// kvRig is one booted kvstore harness in the Table 8 configuration: PHOENIX
// with unsafe-region checks, and the mark-and-sweep cleanup on recovery.
type kvRig struct {
	h      *recovery.Harness
	kv     *kvstore.KV
	traced *tracedApp
}

func newKV(seed int64, keys []string, rec *recorder) (*kvRig, error) {
	kv := kvstore.New(kvstore.Config{Cleanup: true}, nil)
	rig := &kvRig{kv: kv}
	var app recovery.App = kv
	if rec != nil {
		app, rig.traced = traceApp(kv, rec, 0)
	}
	cfg := recovery.Config{Mode: recovery.ModePhoenix, UnsafeRegions: true}
	rig.h = recovery.NewHarness(kernel.NewMachine(seed), cfg, app, nil, nil)
	if err := rig.h.Boot(); err != nil {
		return nil, fmt.Errorf("boot kvstore: %w", err)
	}
	for i, k := range keys {
		req := &workload.Request{Seq: uint64(i + 1), Op: workload.OpInsert, Key: k, Value: workload.Value(k, 1, valueSize)}
		ok, _, err := rig.h.ServeRequest(req)
		if err != nil {
			return nil, fmt.Errorf("load %s: %w", k, err)
		}
		if !ok {
			return nil, fmt.Errorf("load %s: not answered", k)
		}
	}
	return rig, nil
}

// setupKV builds the loaded store c.setups() times (then runs after on it)
// and keeps the last one; it returns the median set-up time in seconds.
func setupKV(c config, keys []string, after func(*kvRig) error) (*kvRig, float64, error) {
	var rig *kvRig
	times := make([]float64, 0, c.setups())
	for i := 0; i < c.setups(); i++ {
		rig = nil
		runtime.GC()
		start := time.Now()
		r, err := newKV(c.seed, keys, c.rec)
		if err == nil && after != nil {
			err = after(r)
		}
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		rig = r
	}
	// Collect the discarded set-ups now rather than during the first rounds.
	runtime.GC()
	return rig, median(times), nil
}

func (rig *kvRig) now() time.Duration { return rig.h.M.Clock.Now() }

// serve draws the next request from gen and serves it, recording spans when
// sampled. It returns the request, the harness verdicts and the wall time of
// ServeRequest.
func (rig *kvRig) serve(gen workload.Generator, rec *recorder, sampled bool) (*workload.Request, bool, bool, time.Duration, error) {
	if !sampled {
		rec = nil
	}
	id := rec.begin("workload.Next", 0)
	req := gen.Next()
	rec.end(id, 0)
	id = rec.begin("recovery.ServeRequest", req.Seq)
	sim0 := rig.now()
	start := time.Now()
	ok, eff, err := rig.h.ServeRequest(req)
	d := time.Since(start)
	rec.end(id, rig.now()-sim0)
	if err != nil {
		return req, false, false, d, fmt.Errorf("serve %v %s: %w", req.Op, req.Key, err)
	}
	return req, ok, eff, d, nil
}

// recoverOnce injects one crash and serves gen until the first answer. Bug R3
// dereferences a null request-scoped pointer, so only temporary state is
// touched and the crash is PHOENIX-eligible; it fires on an injected read of
// crashKey, which the generator's stream never sees. served is called for
// each generator request after the crash. It returns the crash-to-answer wall
// and simulated times.
func (rig *kvRig) recoverOnce(gen workload.Generator, rec *recorder, crashKey string, res *result, served func(*workload.Request, bool, bool)) (time.Duration, time.Duration, error) {
	before := rig.h.Stat
	rig.kv.ArmBug("R3")
	sim0 := rig.now()
	start := time.Now()
	id := rec.begin("recovery.ServeRequest.crash", 0)
	ok, _, err := rig.h.ServeRequest(&workload.Request{Op: workload.OpRead, Key: crashKey})
	rec.end(id, rig.now()-sim0)
	if err != nil {
		return 0, 0, fmt.Errorf("crash request: %w", err)
	}
	if ok {
		return 0, 0, fmt.Errorf("injected crash request was answered")
	}
	for {
		req, ok, eff, _, err := rig.serve(gen, rec, rec != nil)
		if err != nil {
			return 0, 0, err
		}
		served(req, ok, eff)
		if ok {
			break
		}
	}
	wall, sim := time.Since(start), rig.now()-sim0
	if err := checkPhoenixRung(before, rig.h.Stat); err != nil {
		res.problem(1, "crash recovery: "+err.Error())
	}
	return wall, sim, nil
}

// roundStats collects per-round measurements. Untraced rounds feed the
// end-to-end metrics; on a traced run the two halves give the overhead.
type roundStats struct {
	opsPerS, p50, tail  []float64
	tracedNs, plainNs   []float64
	allocBytes, gcCount uint64
	ops                 int
	mem                 runtime.MemStats
}

// begin starts a round; on traced runs it also snapshots the Go allocator.
func (rs *roundStats) begin(c config) time.Time {
	if c.rec != nil {
		runtime.ReadMemStats(&rs.mem)
	}
	return time.Now()
}

// end closes a round of ops operations that took wall, with per-operation
// latencies lat (µs, sorted in place) summarised at the tail quantile.
func (rs *roundStats) end(c config, round, ops int, wall time.Duration, lat []float64, tail float64) {
	perOp := float64(wall) / float64(ops)
	if c.traced(round) {
		rs.tracedNs = append(rs.tracedNs, perOp)
		return
	}
	if c.rec != nil {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		rs.allocBytes += m.TotalAlloc - rs.mem.TotalAlloc
		rs.gcCount += uint64(m.NumGC - m.NumForcedGC - rs.mem.NumGC + rs.mem.NumForcedGC)
		rs.ops += ops
		rs.plainNs = append(rs.plainNs, perOp)
	}
	rs.opsPerS = append(rs.opsPerS, float64(ops)/wall.Seconds())
	if len(lat) > 0 {
		sort.Float64s(lat)
		rs.p50 = append(rs.p50, sortedPct(lat, 0.5))
		rs.tail = append(rs.tail, sortedPct(lat, tail))
	}
}

// report stores the best untraced round: its throughput and its latency
// quantiles. Other tenants of the host only ever slow a round down, so the
// best round is the one least disturbed by them (the reasoning behind
// Python's timeit reporting the minimum), and a change to the code moves
// every round, the best one included.
func (rs *roundStats) report(res *result) {
	res.values["ops_per_s"] = percentile(rs.opsPerS, 1)
	res.values["op_p50_us"] = percentile(rs.p50, 0)
	res.values["op_tail_us"] = percentile(rs.tail, 0)
	if len(rs.tracedNs) > 0 && len(rs.plainNs) > 0 {
		res.values["trace.overhead_frac"] = median(rs.tracedNs)/median(rs.plainNs) - 1
	}
	if rs.ops > 0 {
		res.values["go.alloc_bytes_per_op"] = float64(rs.allocBytes) / float64(rs.ops)
		res.values["go.gc_cycles"] = float64(rs.gcCount)
	}
}

func ycsb(seed int64, records uint64, read, insert, update float64) *workload.YCSB {
	return workload.NewYCSB(workload.YCSBConfig{
		Seed: seed, Records: records, ReadFrac: read, InsertFrac: insert, UpdateFrac: update,
		ValueSize: valueSize, ZipfianKeys: true,
	})
}

// runServe is kv-serve: fault-free YCSB 90/5/5 read/insert/update over 200k
// keys, one closed-loop client. It never reaches preserve_exec.
func runServe(c config) (*result, error) {
	keys, perRound := c.shape.serveKeys, c.shape.servePerRound
	gen := ycsb(c.seed, uint64(keys), 0.90, 0.05, 0.05)
	loaded := gen.LoadKeys()
	rig, setup, err := setupKV(c, loaded, nil)
	if err != nil {
		return nil, err
	}
	res := newResult()
	res.values["setup_s"] = setup
	hw := newHeapWatch()
	hw.sample()

	var rs roundStats
	var ops opCheck
	lat := make([]float64, perRound)
	inserted := 0
	var sim time.Duration
	for r := 0; r < 4*c.seconds; r++ {
		sampled := c.traced(r)
		sim0 := rig.now()
		start := rs.begin(c)
		for i := 0; i < perRound; i++ {
			req, ok, eff, d, err := rig.serve(gen, c.rec, sampled && i%sampleEvery == 0)
			if err != nil {
				return nil, err
			}
			lat[i] = float64(d) / 1e3
			ops.note(req, ok, eff)
			if ok && req.Op == workload.OpInsert {
				inserted++
			}
		}
		rs.end(c, r, perRound, time.Since(start), lat, 0.99)
		sim += rig.now() - sim0
		res.attempted += perRound
		if r%10 == 9 {
			hw.sample()
		}
	}
	rs.report(res)
	res.values["sim_ops_per_s"] = float64(res.attempted) / sim.Seconds()
	res.values["sim_latency_us"] = float64(sim) / 1e3 / float64(res.attempted)
	ops.report(res)
	hw.sample()
	res.values["heap_mib"] = hw.mib()
	if err := checkCount(rig.kv.Dump(), len(loaded)+inserted); err != nil {
		res.problem(1, err.Error())
	}
	if c.rec != nil {
		if err := rig.traceLayers(c, gen, loaded, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// runRecover is kv-recover: a crash loop. Each cycle serves 5,000 YCSB 90/10
// read/insert requests (so every stored value is version 1), idles past the
// grace window, crashes on bug R3 and serves until the first answer.
func runRecover(c config) (*result, error) {
	keys, perCycle, cyclesPerRound := c.shape.recoverKeys, c.shape.recoverPerCycle, c.shape.recoverCycles
	gen := ycsb(c.seed, uint64(keys), 0.90, 0.10, 0)
	loaded := gen.LoadKeys()
	rig, setup, err := setupKV(c, loaded, nil)
	if err != nil {
		return nil, err
	}
	res := newResult()
	res.values["setup_s"] = setup
	hw := newHeapWatch()
	hw.sample()

	expected := append([]string(nil), loaded...)
	var ops opCheck
	check := func(req *workload.Request, ok, eff bool) {
		res.attempted++
		ops.note(req, ok, eff)
		if ok && req.Op == workload.OpInsert {
			expected = append(expected, req.Key)
		}
	}
	var rs roundStats
	var simServe, simDown time.Duration
	var downs []float64
	recWall := make([]float64, cyclesPerRound)
	for r := 0; r < c.seconds; r++ {
		traced := c.traced(r)
		var rec *recorder
		if traced {
			rec = c.rec
		}
		answered0 := res.attempted - ops.unanswered
		rs.begin(c)
		var wall time.Duration
		for cyc := 0; cyc < cyclesPerRound; cyc++ {
			sim0 := rig.now()
			start := time.Now()
			for i := 0; i < perCycle; i++ {
				req, ok, eff, _, err := rig.serve(gen, c.rec, traced && i%sampleEvery == 0)
				if err != nil {
					return nil, err
				}
				check(req, ok, eff)
			}
			wall += time.Since(start)
			simServe += rig.now() - sim0
			// Every recovery starts from a collected heap, so whether a GC
			// cycle happens to overlap it does not decide its time.
			runtime.GC()
			rig.h.M.Clock.Advance(idleGap)
			down, sim, err := rig.recoverOnce(gen, rec, loaded[0], res, check)
			if err != nil {
				return nil, err
			}
			wall += down
			simDown += sim
			downs = append(downs, float64(sim)/1e3)
			recWall[cyc] = float64(down) / 1e3
		}
		rs.end(c, r, res.attempted-ops.unanswered-answered0, wall, recWall, 0.9)
		hw.sample()
	}
	rs.report(res)
	answered := res.attempted - ops.unanswered
	res.values["sim_ops_per_s"] = float64(answered) / (simServe + simDown).Seconds()
	res.values["sim_latency_us"] = mean(downs)
	ops.report(res)
	res.values["heap_mib"] = hw.mib()
	if lost, sample := checkKeys(rig.kv.Dump(), expected); lost > 0 {
		res.problem(lost, fmt.Sprintf("%d of %d written keys lost or changed across crashes (e.g. %v)", lost, len(expected), sample))
	}
	if c.rec != nil {
		if err := rig.traceLayers(c, gen, loaded, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

const (
	snapReaders = 2
	// readSampleEvery times one read in this many; timing every read would
	// add two clock reads to a sub-microsecond operation.
	readSampleEvery = 16
)

// runSnapshot is kv-snapshot: each round applies 2,000 Zipfian updates
// through ServeRequest, commits and opens an MVCC snapshot, and serves
// 40,000 reads off it from two goroutines while the store stays writable.
func runSnapshot(c config) (*result, error) {
	sh := c.shape
	gen := ycsb(c.seed, uint64(sh.snapKeys), 0, 0, 1)
	loaded := gen.LoadKeys()
	rig, setup, err := setupKV(c, loaded, func(r *kvRig) error {
		_, err := r.h.SnapshotCommit()
		return err
	})
	if err != nil {
		return nil, err
	}
	res := newResult()
	res.values["setup_s"] = setup
	hw := newHeapWatch()
	hw.sample()

	var rs roundStats
	var sim time.Duration
	var commits []float64
	rounds := 30 * c.seconds
	for r := 0; r < rounds; r++ {
		traced := c.traced(r)
		sim0 := rig.now()
		start := rs.begin(c)
		for i := 0; i < sh.snapWrites; i++ {
			req, ok, _, _, err := rig.serve(gen, c.rec, traced && i%sampleEvery == 0)
			if err != nil {
				return nil, err
			}
			if !ok {
				res.problem(1, fmt.Sprintf("write %s not answered", req.Key))
			}
		}
		sr, commitSim, err := rig.publish(c, traced)
		if err != nil {
			return nil, err
		}
		commits = append(commits, float64(commitSim)/1e3)
		sim += rig.now() - sim0 + rig.h.M.Model.ConcurrentReadBatch(snapReaders*sh.snapPerReader, snapReaders)
		rp := readPhase(sr, snapReaders, sh.snapPerReader, c.seed*1_000_003+int64(r)*snapReaders, c, traced)
		if err := sr.CheckFrozen(); err != nil {
			res.problem(1, fmt.Sprintf("round %d: %v", r, err))
		}
		wall := time.Since(start)
		if traced {
			one := readPhase(sr, 1, snapReaders*sh.snapPerReader, c.seed*1_000_003+int64(r)*snapReaders, c, false)
			res.addSamples("snapshot.reads_per_s_1r", one.perS())
			res.addSamples("snapshot.reads_per_s_2r", rp.perS())
			res.addSamples("app.snapshot_read_ns", rp.lat...)
		}
		sr.Close()
		if rp.missed > 0 {
			res.problem(rp.missed, fmt.Sprintf("round %d: %d snapshot reads of committed keys missed", r, rp.missed))
		}
		ops := sh.snapWrites + snapReaders*sh.snapPerReader
		res.attempted += ops
		rs.end(c, r, ops, wall, rp.lat, 0.99)
		if r%30 == 29 {
			hw.sample()
		}
	}
	rs.report(res)
	res.values["sim_ops_per_s"] = float64(res.attempted) / sim.Seconds()
	res.values["sim_latency_us"] = mean(commits)
	res.values["heap_mib"] = hw.mib()
	if c.rec != nil {
		if err := rig.traceLayers(c, gen, loaded, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// publish commits a snapshot version and opens a reader on it, recording
// both calls on traced rounds. It returns the simulated commit time.
func (rig *kvRig) publish(c config, traced bool) (*recovery.SnapshotReader, time.Duration, error) {
	rec := c.rec
	if !traced {
		rec = nil
	}
	sim0 := rig.now()
	id := rec.begin("recovery.SnapshotCommit", 0)
	_, err := rig.h.SnapshotCommit()
	commitSim := rig.now() - sim0
	rec.end(id, commitSim)
	if err != nil {
		return nil, 0, fmt.Errorf("snapshot commit: %w", err)
	}
	id = rec.begin("recovery.OpenSnapshot", 0)
	sr, err := rig.h.OpenSnapshot()
	rec.end(id, 0)
	if err != nil {
		return nil, 0, fmt.Errorf("open snapshot: %w", err)
	}
	return sr, commitSim, nil
}

type readStats struct {
	reads  int
	missed int
	wall   time.Duration
	lat    []float64 // sampled read latencies, µs
}

func (s readStats) perS() float64 { return float64(s.reads) / s.wall.Seconds() }

// readPhase serves perReader Zipfian reads of loaded keys from each of
// readers goroutines off one open snapshot, and waits for all of them. On a
// traced round every sampleEvery-th timed read is also kept as a span.
func readPhase(sr *recovery.SnapshotReader, readers, perReader int, seed int64, c config, traced bool) readStats {
	type out struct {
		missed int
		lat    []float64
		rec    *recorder
	}
	outs := make([]out, readers)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < readers; i++ {
		if traced {
			outs[i].rec = newRecorder(c.rec.origin, i+1)
		}
		wg.Add(1)
		go func(o *out, seed int64) {
			defer wg.Done()
			gen := ycsb(seed, uint64(c.shape.snapKeys), 1, 0, 0)
			o.lat = make([]float64, 0, perReader/readSampleEvery+1)
			for j := 0; j < perReader; j++ {
				req := gen.Next()
				if j%readSampleEvery != 0 {
					if _, eff := sr.Serve(req); !eff {
						o.missed++
					}
					continue
				}
				t := time.Now()
				_, eff := sr.Serve(req)
				d := time.Since(t)
				if !eff {
					o.missed++
				}
				o.lat = append(o.lat, float64(d)/1e3)
				if j%sampleEvery == 0 {
					o.rec.add("app.SnapshotRead", t, t.Add(d), 0)
				}
			}
		}(&outs[i], seed+int64(i))
	}
	wg.Wait()
	s := readStats{reads: readers * perReader, wall: time.Since(start)}
	for _, o := range outs {
		s.missed += o.missed
		s.lat = append(s.lat, o.lat...)
		if o.rec != nil {
			c.rec.merge(o.rec)
		}
	}
	return s
}

// traceLayers finishes a traced kv run: it probes the layers the workload's
// own loop may not reach, derives the per-layer metrics from the spans and
// counters, and runs the layer ladder at the store's final footprint.
func (rig *kvRig) traceLayers(c config, gen workload.Generator, loaded []string, res *result) error {
	if err := rig.probe(c, gen, loaded[0], res); err != nil {
		return err
	}
	spanMetrics(c.rec, []*tracedApp{rig.traced}, res)
	v := res.values
	v["recovery.serve_self_ns_p50"] = percentile(durations(c.rec.self("recovery.ServeRequest"), time.Nanosecond), 0.5)
	v["kernel.preserves_aborted"] = float64(rig.h.M.Counters.PreservesAborted.Load())
	v["snapshot.reads_per_s_1r"] = median(res.samples["snapshot.reads_per_s_1r"])
	if one := v["snapshot.reads_per_s_1r"]; one > 0 {
		v["snapshot.reader_scaling"] = median(res.samples["snapshot.reads_per_s_2r"]) / one
	}
	v["app.snapshot_read_ns_p50"] = 1e3 * median(res.samples["app.snapshot_read_ns"])
	return ladder(footprint{keys: len(loaded), pages: rig.h.Proc().AS.ResidentPages()}, res)
}

// probe runs, after the measured rounds, one snapshot round and one PHOENIX
// crash recovery at this workload's footprint, so every kv workload reports
// the snapshot and recovery layers.
func (rig *kvRig) probe(c config, gen workload.Generator, crashKey string, res *result) error {
	if _, err := rig.h.SnapshotCommit(); err != nil {
		return fmt.Errorf("probe commit: %w", err)
	}
	for i := 0; i < c.shape.snapWrites; i++ {
		if _, _, _, _, err := rig.serve(gen, nil, false); err != nil {
			return err
		}
	}
	sr, _, err := rig.publish(c, true)
	if err != nil {
		return err
	}
	two := readPhase(sr, snapReaders, c.shape.snapPerReader, c.seed, c, true)
	one := readPhase(sr, 1, snapReaders*c.shape.snapPerReader, c.seed, c, false)
	sr.Close()
	res.addSamples("snapshot.reads_per_s_1r", one.perS())
	res.addSamples("snapshot.reads_per_s_2r", two.perS())
	res.addSamples("app.snapshot_read_ns", two.lat...)

	rig.h.M.Clock.Advance(idleGap)
	_, _, err = rig.recoverOnce(gen, c.rec, crashKey, res, func(*workload.Request, bool, bool) {})
	return err
}

// footprint is the state size the layer ladder is measured at.
type footprint struct{ keys, pages int }

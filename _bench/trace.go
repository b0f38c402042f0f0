package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"phoenix/internal/apps/kvstore"
	"phoenix/internal/apps/lsmdb"
	"phoenix/internal/core"
	"phoenix/internal/kernel"
	"phoenix/internal/linker"
	"phoenix/internal/mem"
	"phoenix/internal/recovery"
	"phoenix/internal/simclock"
	"phoenix/internal/workload"
)

// span is one call the benchmark made into a layer, or one the harness made
// into the application through tracedApp.
type span struct {
	Name   string
	Start  time.Duration // wall time since the recorder's origin
	End    time.Duration
	Parent int // index of the enclosing span; -1 at top level
	Req    uint64
	Sim    time.Duration // simulated time the call advanced, where known
	Tid    int
}

// recorder keeps spans in memory for one goroutine. A nil *recorder records
// nothing, so untraced runs pay one nil check per call site.
type recorder struct {
	origin time.Time
	tid    int
	spans  []span
	open   []int
}

func newRecorder(origin time.Time, tid int) *recorder {
	return &recorder{origin: origin, tid: tid}
}

func (r *recorder) begin(name string, req uint64) int {
	if r == nil {
		return -1
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{Name: name, Start: time.Since(r.origin), Parent: parent, Req: req, Tid: r.tid})
	id := len(r.spans) - 1
	r.open = append(r.open, id)
	return id
}

// end closes span id, and any span opened inside it that a panic skipped.
func (r *recorder) end(id int, sim time.Duration) {
	if r == nil || id < 0 {
		return
	}
	r.spans[id].End = time.Since(r.origin)
	r.spans[id].Sim = sim
	for len(r.open) > 0 {
		top := r.open[len(r.open)-1]
		r.open = r.open[:len(r.open)-1]
		if top == id {
			return
		}
	}
}

// add records an already-timed top-level span.
func (r *recorder) add(name string, start, end time.Time, sim time.Duration) {
	if r == nil {
		return
	}
	r.spans = append(r.spans, span{Name: name, Start: start.Sub(r.origin), End: end.Sub(r.origin), Parent: -1, Sim: sim, Tid: r.tid})
}

func (r *recorder) active() bool { return r != nil && len(r.open) > 0 }

// merge appends another goroutine's spans as top-level spans of r.
func (r *recorder) merge(o *recorder) {
	for _, s := range o.spans {
		s.Parent = -1
		r.spans = append(r.spans, s)
	}
}

// self returns the self times (duration minus child durations) of every span
// named name.
func (r *recorder) self(name string) []time.Duration {
	child := make([]time.Duration, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	var out []time.Duration
	for i, s := range r.spans {
		if s.Name == name {
			out = append(out, s.End-s.Start-child[i])
		}
	}
	return out
}

// sims returns the simulated durations of every span named name.
func (r *recorder) sims(name string) []time.Duration {
	var out []time.Duration
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, s.Sim)
		}
	}
	return out
}

type chromeArgs struct {
	Req    uint64 `json:"req"`
	Parent int    `json:"parent"`
	SimNs  int64  `json:"sim_ns"`
}

type chromeEvent struct {
	Name string     `json:"name"`
	Ph   string     `json:"ph"`
	Ts   float64    `json:"ts"`
	Dur  float64    `json:"dur"`
	Pid  int        `json:"pid"`
	Tid  int        `json:"tid"`
	Args chromeArgs `json:"args"`
}

// writeChrome writes the spans as Chrome trace-event JSON (complete events,
// microsecond timestamps), which Perfetto and chrome://tracing load.
func (r *recorder) writeChrome(path string) error {
	events := make([]chromeEvent, len(r.spans))
	for i, s := range r.spans {
		events[i] = chromeEvent{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Tid,
			Ts:   float64(s.Start) / 1e3,
			Dur:  float64(s.End-s.Start) / 1e3,
			Args: chromeArgs{Req: s.Req, Parent: s.Parent, SimNs: int64(s.Sim)},
		}
	}
	b, err := json.Marshal(struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{events, "ns"})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}

// tracedApp forwards recovery.App to an application and records a span
// around every call the harness makes into it. Handle is recorded only under
// an open benchmark span (the benchmark samples requests), or, when every is
// set, on every every-th call (shard-churn, where the fabric calls the harness
// and no benchmark span is open). Crash restarts are followed from the
// crash-time PlanRestart to the recovering Main.
type tracedApp struct {
	app   recovery.App
	rec   *recorder
	every uint64
	calls uint64
	clock *simclock.Clock

	crashPlan   bool
	planEnd     time.Time
	planEndSim  time.Duration
	crashes     int
	phoenix     int
	moved       int
	verified    int
	reused      int
	recoverPage int
}

func (a *tracedApp) now() time.Duration {
	if a.clock == nil {
		return 0
	}
	return a.clock.Now()
}

func (a *tracedApp) bind(rt *core.Runtime) { a.clock = rt.Proc().Machine.Clock }

func (a *tracedApp) Name() string              { return a.app.Name() }
func (a *tracedApp) Image() *linker.Image      { return a.app.Image() }
func (a *tracedApp) Checkpoint()               { a.app.Checkpoint() }
func (a *tracedApp) Reattach(rt *core.Runtime) { a.bind(rt); a.app.Reattach(rt) }
func (a *tracedApp) Dump() core.StateDump      { return a.app.Dump() }
func (a *tracedApp) SetPersistence(on bool)    { a.app.SetPersistence(on) }
func (a *tracedApp) CrossCheck(rt *core.Runtime) (core.CrossCheckSpec, bool) {
	return a.app.CrossCheck(rt)
}

func (a *tracedApp) Main(rt *core.Runtime) error {
	a.bind(rt)
	name := "app.Main.boot"
	if a.crashPlan {
		a.crashPlan = false
		if rt.IsRecoveryMode() {
			name = "app.Main.recover"
			a.phoenix++
			a.rec.add("recovery.restart", a.planEnd, time.Now(), a.now()-a.planEndSim)
			ho := rt.Proc().Handoff()
			a.moved += ho.MovedPages
			a.verified += ho.VerifiedChecksums
			a.reused += ho.ReusedChecksums
			if n := rt.Proc().AS.ResidentPages(); n > a.recoverPage {
				a.recoverPage = n
			}
		}
	}
	sim0 := a.now()
	id := a.rec.begin(name, 0)
	defer func() { a.rec.end(id, a.now()-sim0) }()
	return a.app.Main(rt)
}

func (a *tracedApp) Handle(req *workload.Request) (ok, effective bool) {
	a.calls++
	if !a.rec.active() && (a.every == 0 || a.calls%a.every != 0) {
		return a.app.Handle(req)
	}
	name := "app.Handle.read"
	if req.Op != workload.OpRead {
		name = "app.Handle.write"
	}
	sim0 := a.now()
	id := a.rec.begin(name, req.Seq)
	done := false
	defer func() {
		if !done && id >= 0 {
			a.rec.spans[id].Name = "app.Handle.crash"
		}
		a.rec.end(id, a.now()-sim0)
	}()
	ok, effective = a.app.Handle(req)
	done = true
	return ok, effective
}

func (a *tracedApp) PlanRestart(rt *core.Runtime, ci *kernel.CrashInfo, useUnsafe bool) (core.RestartPlan, string) {
	a.bind(rt)
	// Live migration resolves the plan with no crash every copy round.
	name := "app.PlanRestart.migrate"
	if ci != nil {
		name = "app.PlanRestart"
		a.crashes++
	}
	sim0 := a.now()
	id := a.rec.begin(name, 0)
	plan, reason := a.app.PlanRestart(rt, ci, useUnsafe)
	a.rec.end(id, a.now()-sim0)
	if ci != nil && reason == "" {
		a.crashPlan = true
		a.planEnd, a.planEndSim = time.Now(), a.now()
	}
	return plan, reason
}

// tracedKV carries exactly the optional interfaces *kvstore.KV implements.
type tracedKV struct{ *tracedApp }

func (a tracedKV) OpenSnapshotReader(view *mem.AddressSpace) func(*workload.Request) (bool, bool) {
	id := a.rec.begin("app.OpenSnapshotReader", 0)
	defer a.rec.end(id, 0)
	return a.app.(recovery.SnapshotServer).OpenSnapshotReader(view)
}

func (a tracedKV) Rewindable() bool { return a.app.(recovery.RewindableApp).Rewindable() }

func (a tracedKV) RestoreReference(rt *core.Runtime, ref core.StateDump) error {
	a.bind(rt)
	return a.app.(recovery.ReferenceRestorer).RestoreReference(rt, ref)
}

// tracedLSM carries exactly the optional interfaces *lsmdb.DB implements.
type tracedLSM struct{ tracedKV }

func (a tracedLSM) Components() []recovery.Component {
	return a.app.(recovery.ComponentApp).Components()
}

func (a tracedLSM) RebootComponent(name string) (int, error) {
	return a.app.(recovery.ComponentApp).RebootComponent(name)
}

func (a tracedLSM) VerifyComponents() error { return a.app.(recovery.ComponentApp).VerifyComponents() }

func (a tracedLSM) ArmComponentCrash(name string) {
	a.app.(recovery.ComponentApp).ArmComponentCrash(name)
}

func (a tracedLSM) AfterRewind() { a.app.(recovery.RewindObserver).AfterRewind() }

// traceApp wraps app so that the harness sees the same optional interfaces
// as on the bare application; the harness branches on them.
func traceApp(app recovery.App, rec *recorder, every uint64) (recovery.App, *tracedApp) {
	t := &tracedApp{app: app, rec: rec, every: every}
	switch app.(type) {
	case *kvstore.KV:
		return tracedKV{t}, t
	case *lsmdb.DB:
		return tracedLSM{tracedKV{t}}, t
	}
	panic(fmt.Sprintf("phxbench: no traced wrapper for %T", app))
}

// spanMetrics derives the span- and wrapper-based per-layer metrics shared by
// every workload: the generator, the application's request and restart
// entry points, the restart gap the harness and kernel spend between them,
// and the kernel's per-crash handoff counts.
func spanMetrics(rec *recorder, apps []*tracedApp, res *result) {
	ns := func(name string) []float64 { return durations(rec.self(name), time.Nanosecond) }
	p50 := func(xs []float64) float64 { return percentile(xs, 0.5) }
	reads, writes := ns("app.Handle.read"), ns("app.Handle.write")
	handles := append(append([]float64(nil), reads...), writes...)
	v := res.values
	v["workload.next_ns_p50"] = p50(ns("workload.Next"))
	v["app.handle_ns_p50"] = p50(handles)
	v["app.handle_ns_p99"] = percentile(handles, 0.99)
	v["app.handle_read_ns_p50"] = p50(reads)
	v["app.handle_write_ns_p50"] = p50(writes)
	sims := append(rec.sims("app.Handle.read"), rec.sims("app.Handle.write")...)
	v["app.handle_sim_ns_mean"] = mean(durations(sims, time.Nanosecond))
	v["app.plan_restart_us_p50"] = p50(ns("app.PlanRestart")) / 1e3
	v["app.main_recover_ms_p50"] = p50(ns("app.Main.recover")) / 1e6
	v["app.main_recover_sim_ms_p50"] = p50(durations(rec.sims("app.Main.recover"), time.Millisecond))
	v["recovery.restart_self_ms_p50"] = p50(ns("recovery.restart")) / 1e6
	v["recovery.restart_self_sim_ms_p50"] = p50(durations(rec.sims("recovery.restart"), time.Millisecond))
	v["recovery.snapshot_commit_us_p50"] = p50(ns("recovery.SnapshotCommit")) / 1e3
	v["recovery.open_snapshot_us_p50"] = p50(ns("recovery.OpenSnapshot")) / 1e3

	var crashes, phoenix, moved, verified, reused int
	for _, a := range apps {
		crashes += a.crashes
		phoenix += a.phoenix
		moved += a.moved
		verified += a.verified
		reused += a.reused
	}
	if crashes > 0 {
		v["recovery.phoenix_restart_frac"] = float64(phoenix) / float64(crashes)
	}
	if phoenix > 0 {
		v["kernel.moved_pages"] = float64(moved) / float64(phoenix)
		v["kernel.checksums_verified"] = float64(verified) / float64(phoenix)
	}
	if verified > 0 {
		v["kernel.checksum_reuse_frac"] = float64(reused) / float64(verified)
	}
}

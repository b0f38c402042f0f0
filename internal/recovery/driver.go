package recovery

import (
	"errors"
	"fmt"
	"time"

	"phoenix/internal/core"
	"phoenix/internal/faultinject"
	"phoenix/internal/kernel"
	"phoenix/internal/linker"
	"phoenix/internal/mem"
	"phoenix/internal/metrics"
	"phoenix/internal/workload"
)

// Mode selects the recovery mechanism under test.
type Mode int

const (
	// ModeVanilla restarts with no persistence: all state is lost.
	ModeVanilla Mode = iota
	// ModeBuiltin uses the application's own persistence (RDB-style
	// snapshot, WAL, or periodic checkpoint) for recovery.
	ModeBuiltin
	// ModeCRIU restores the last full-process checkpoint image.
	ModeCRIU
	// ModePhoenix performs PHOENIX-mode restarts with partial state
	// preservation, falling back to the application's default recovery when
	// the recovery condition fails.
	ModePhoenix
)

func (m Mode) String() string {
	switch m {
	case ModeVanilla:
		return "Vanilla"
	case ModeBuiltin:
		return "Builtin"
	case ModeCRIU:
		return "CRIU"
	case ModePhoenix:
		return "PHOENIX"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Config parameterises a harness run.
type Config struct {
	Mode Mode
	// UnsafeRegions gates the recovery-condition check (the U vs N
	// configurations of Table 7). Only meaningful under ModePhoenix.
	UnsafeRegions bool
	// CrossCheck enables background cross-check validation (the C
	// configuration). Only meaningful under ModePhoenix.
	CrossCheck bool
	// CheckpointInterval is the Builtin/CRIU snapshot period (0 disables
	// periodic snapshots).
	CheckpointInterval time.Duration
	// WatchdogTimeout is how long a hang persists before a forced restart.
	WatchdogTimeout time.Duration
	// DisablePersistence turns the app's builtin persistence off even under
	// ModePhoenix, so a PHOENIX fallback degenerates to a fresh restart —
	// the injection-testing configuration of §4.4, where fallbacks "restart
	// to empty memory state".
	DisablePersistence bool
	// DisableChecksums turns preserve_exec's integrity checksums off, the
	// paper's design: no sums are staged or verified, and a preserve costs
	// the paper's formula (kernel.ExecSpec.SkipVerify). Only meaningful
	// under ModePhoenix; the zero value keeps the checksums on.
	DisableChecksums bool
	// Supervise enables the crash-loop breaker and escalation ladder
	// (PHOENIX → builtin → vanilla with exponential backoff, extended
	// downward to microreboot and rewind when Supervisor.Floor opts in).
	// Only meaningful under ModePhoenix.
	Supervise bool
	// RewindDomains routes each request through a per-request rewind domain
	// when the app is rewindable: a faulting request's page writes are rolled
	// back byte-exactly, and the LevelRewind rung recovers without any
	// restart. Only meaningful under ModePhoenix.
	RewindDomains bool
	// Supervisor parameterises the breaker/ladder; zero fields take
	// defaults. Ignored unless Supervise is set.
	Supervisor SupervisorConfig
}

func (c *Config) fill() {
	if c.WatchdogTimeout == 0 {
		c.WatchdogTimeout = 5 * time.Second
	}
}

// eventCap bounds Stats.Events: once the log reaches it, the oldest half is
// discarded and Stats.DroppedEvents counts the loss. A variable only so a
// test can shrink the ring.
var eventCap = 4096

// ErrRetryBudget is the terminal error a supervised harness returns when
// crashes exhaust SupervisorConfig.RetryBudget; match it with errors.Is.
var ErrRetryBudget = errors.New("retry budget exhausted")

// Validate rejects nonsensical configurations with a descriptive error
// instead of letting them silently misbehave mid-run: PHOENIX-only knobs
// combined with a non-PHOENIX mode, negative durations, or contradictory
// supervisor parameters. NewHarness calls it on every construction.
func (c Config) Validate() error {
	if c.Mode < ModeVanilla || c.Mode > ModePhoenix {
		return fmt.Errorf("recovery: unknown mode %v", c.Mode)
	}
	if c.Mode != ModePhoenix {
		if c.UnsafeRegions {
			return fmt.Errorf("recovery: UnsafeRegions requires ModePhoenix (got %v): the recovery-condition check only gates PHOENIX restarts", c.Mode)
		}
		if c.CrossCheck {
			return fmt.Errorf("recovery: CrossCheck requires ModePhoenix (got %v): cross-check validates preserved state", c.Mode)
		}
		if c.DisableChecksums {
			return fmt.Errorf("recovery: DisableChecksums requires ModePhoenix (got %v): only preserve_exec verifies checksums", c.Mode)
		}
		if c.Supervise {
			return fmt.Errorf("recovery: Supervise requires ModePhoenix (got %v): the escalation ladder starts at PHOENIX", c.Mode)
		}
		if c.RewindDomains {
			return fmt.Errorf("recovery: RewindDomains requires ModePhoenix (got %v): rewind is a rung below the PHOENIX ladder", c.Mode)
		}
	}
	if c.CheckpointInterval < 0 {
		return fmt.Errorf("recovery: negative CheckpointInterval %v", c.CheckpointInterval)
	}
	if c.WatchdogTimeout < 0 {
		return fmt.Errorf("recovery: negative WatchdogTimeout %v", c.WatchdogTimeout)
	}
	if c.Supervise {
		if err := c.Supervisor.Validate(); err != nil {
			return fmt.Errorf("recovery: invalid Supervisor config: %w", err)
		}
	}
	return nil
}

// App is the contract an evaluated application implements. One App value
// represents the *program*: it survives simulated process restarts, and its
// Main method rebinds its internal cursors to each new process incarnation.
type App interface {
	// Name identifies the application.
	Name() string
	// Image returns the application's binary image (built once).
	Image() *linker.Image
	// Main boots the application inside the process held by rt: on a fresh
	// start it initialises state (loading persistence if the mode uses it);
	// in PHOENIX recovery mode it re-adopts preserved state.
	Main(rt *core.Runtime) error
	// Handle processes one request. ok reports the request was answered;
	// effective reports it counts toward effective availability (hit or
	// successful read).
	Handle(req *workload.Request) (ok, effective bool)
	// Checkpoint runs the builtin persistence snapshot (no-op if the app has
	// none or persistence is disabled).
	Checkpoint()
	// PlanRestart is the crash-time restart handler: it assembles the
	// PHOENIX preservation plan or returns a non-empty fallback reason
	// (e.g. "unsafe region: kv"). useUnsafe mirrors the U/N configurations.
	PlanRestart(rt *core.Runtime, ci *kernel.CrashInfo, useUnsafe bool) (core.RestartPlan, string)
	// Reattach rebinds the app's cursors to the restored process after a
	// CRIU restore. Simulated addresses are unchanged; only Go-side handles
	// and the runtime binding need refreshing.
	Reattach(rt *core.Runtime)
	// Dump extracts the logical application state for end-to-end
	// validation.
	Dump() core.StateDump
	// CrossCheck returns the app's cross-check wiring; ok=false if the app
	// does not support it.
	CrossCheck(rt *core.Runtime) (core.CrossCheckSpec, bool)
	// SetPersistence toggles builtin persistence (driver sets it from the
	// mode: Vanilla and CRIU run without builtin persistence, per §4.3.3).
	SetPersistence(on bool)
}

// AppFactory builds a fresh application and workload generator bound to the
// given injector, so every run of a campaign is a deterministic replay.
type AppFactory func(inj *faultinject.Injector) (App, workload.Generator)

// ReferenceRestorer is an optional App extension: after a cross-check
// mismatch, the system switches to the background process whose live state
// is the validated S_r. Apps implementing it rebuild directly from the
// reference dump (mirroring the hot-switch); apps that don't fall back to a
// plain default-recovery Main.
type ReferenceRestorer interface {
	RestoreReference(rt *core.Runtime, ref core.StateDump) error
}

// Event records one recovery-relevant occurrence on the timeline.
type Event struct {
	At     time.Duration
	Kind   EventKind
	Detail string
}

// Stats accumulates what Table 7 and Figure 10 report.
type Stats struct {
	Requests        int
	Failures        int
	PhoenixRestarts int
	UnsafeFallbacks int // recovery condition said unsafe (Chk.)
	GraceFallbacks  int // crashed again right after a PHOENIX restart (Fbk.)
	CrossFallbacks  int // cross-check verdict diverged (+X in Chk.)
	// RecoveryFaultFallbacks counts fallbacks taken because preserve_exec
	// itself failed (validation or an injected/real commit fault): the
	// recovery mechanism degraded safely instead of killing the run.
	RecoveryFaultFallbacks int
	// IntegrityFallbacks counts fallbacks taken because preserve_exec's
	// background verify walk caught corrupted preserved frames (a failing
	// kernel.Verify verdict). ServedBeforeVerdict counts the requests those
	// incarnations answered before their verdict: the price of optimism.
	IntegrityFallbacks  int
	ServedBeforeVerdict int
	OtherRestarts       int // vanilla/builtin/criu restarts
	BootFailures        int // Main crashed during recovery (counts into Fbk.)
	// Escalation-ladder accounting (zero unless Config.Supervise).
	BreakerTrips  int
	Escalations   int
	Deescalations int
	// Rewinds counts faulting requests recovered at LevelRewind: the request's
	// rewind domain discarded in-process, no restart of any kind.
	Rewinds int
	// Microreboots counts component-level recoveries at LevelMicroreboot: one
	// component (plus cascaded dependents) discarded and reinitialised while
	// the process kept its address space.
	Microreboots int
	// BackoffTotal is the cumulative simulated time spent holding restarts.
	BackoffTotal time.Duration
	// Events is the bounded diagnostic log, oldest first. When it reaches
	// 4,096 entries the oldest half is dropped; DroppedEvents counts how
	// many entries were discarded that way over the run, and DroppedByKind
	// breaks the loss down per event kind — so a campaign report can still
	// say "the ring dropped 3 de-escalations" even though their details are
	// gone.
	Events           []Event
	DroppedEvents    int
	DroppedByKind    map[EventKind]int
	CheckpointsTaken int
}

// Harness runs one application under one configuration.
type Harness struct {
	Cfg  Config
	App  App
	M    *kernel.Machine
	Inj  *faultinject.Injector
	TL   *metrics.Timeline
	Gen  workload.Generator
	Stat Stats

	proc *kernel.Process
	rt   *core.Runtime

	lastCkpt  time.Duration
	criuImage *CRIUImage

	sup *Supervisor

	// snapStore holds the MVCC snapshot versions of the live process's
	// address space (nil until the first SnapshotCommit; recreated when a
	// restart or migration installs a new space).
	snapStore *mem.SnapshotStore

	pendingResume bool
	pendingSwitch bool
	switchDetail  string
	switchRef     core.StateDump
	activeCheck   *core.CrossCheck
	// ccGen numbers process incarnations for cross-check purposes: a verdict
	// callback captured under an older generation is stale and must not
	// trigger a hot-switch against the current process.
	ccGen int
	// served counts the requests answered since the last PHOENIX restart,
	// for Stats.ServedBeforeVerdict.
	served int
}

// NewHarness assembles a harness. The injector may be nil (no injection).
// The configuration must pass Validate; a nonsensical one is a programming
// error and panics with the validation message.
func NewHarness(m *kernel.Machine, cfg Config, app App, gen workload.Generator, inj *faultinject.Injector) *Harness {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	cfg.fill()
	if inj == nil {
		inj = faultinject.New()
	}
	// Recovery-path injection sites live in the kernel: declare them (no-op
	// if a shared campaign injector already has them) and hand the injector
	// to the machine so PreserveExec consults it.
	inj.RegisterRecovery()
	m.Inj = inj
	h := &Harness{
		Cfg: cfg, App: app, M: m, Gen: gen, Inj: inj,
		TL: metrics.NewTimeline(0),
	}
	if cfg.Supervise {
		h.sup = NewSupervisor(cfg.Supervisor)
	}
	return h
}

// EscalationLevel returns the supervisor's current ladder rung, or the
// harness's one rung (LadderFloor) when supervision is off.
func (h *Harness) EscalationLevel() Level {
	if h.sup == nil {
		return h.LadderFloor()
	}
	return h.sup.Level()
}

// LadderFloor returns the cheapest rung the ladder de-escalates back to.
// Without a supervisor it is the rung every recovery runs at: builtin or
// vanilla in those modes, LevelPhoenix otherwise.
func (h *Harness) LadderFloor() Level {
	switch {
	case h.sup != nil:
		return h.sup.cfg.Floor
	case h.Cfg.Mode == ModeBuiltin:
		return LevelBuiltin
	case h.Cfg.Mode == ModeVanilla:
		return LevelVanilla
	}
	return LevelPhoenix
}

// Runtime returns the live PHOENIX runtime (nil before Boot).
func (h *Harness) Runtime() *core.Runtime { return h.rt }

// bind makes proc the live process and binds a fresh PHOENIX runtime to it,
// marking it as an instrumented build only under ModePhoenix (vanilla
// builds compile the annotations away, so they cost nothing — the Table 8
// baseline).
func (h *Harness) bind(proc *kernel.Process) {
	h.proc = proc
	h.rt = core.Init(proc, nil)
	h.rt.SetInstrumented(h.Cfg.Mode == ModePhoenix)
}

// persistence is the application's persistence posture at boot: on under
// ModeBuiltin and ModePhoenix unless DisablePersistence turns it off.
func (h *Harness) persistence() bool {
	return (h.Cfg.Mode == ModeBuiltin || h.Cfg.Mode == ModePhoenix) && !h.Cfg.DisablePersistence
}

// runMain boots the application in the live process. An error from Main is
// a SIGABRT crash, so a failed boot is reported like any other.
func (h *Harness) runMain() *kernel.CrashInfo {
	return h.proc.Run(func() {
		if err := h.App.Main(h.rt); err != nil {
			panic(&kernel.Crash{Sig: kernel.SIGABRT, Reason: "main: " + err.Error()})
		}
	})
}

// fallback replaces the live process through the runtime's default
// recovery path (core.Runtime.Fallback) and binds the harness to the
// successor.
func (h *Harness) fallback(reason string) error {
	np, err := h.rt.Fallback(reason)
	if err != nil {
		return err
	}
	h.bind(np)
	return nil
}

// Proc returns the live process.
func (h *Harness) Proc() *kernel.Process { return h.proc }

// Boot spawns the first process and runs the application's Main.
func (h *Harness) Boot() error {
	h.App.SetPersistence(h.persistence())
	p, err := h.M.Spawn(h.App.Image())
	if err != nil {
		return err
	}
	h.bind(p)
	h.lastCkpt = h.M.Clock.Now()
	return h.App.Main(h.rt)
}

// AdoptPreserved binds the harness to a process migrated in from another
// machine (the destination side of a shard-migration cutover) and boots the
// application exactly as after a PHOENIX restart: Main runs in recovery
// mode against the preserved pages the migration installed. The harness
// must not have booted; it owns the destination machine the process was
// built on. A crash during the adopting boot degrades to the application's
// default recovery on this machine, mirroring a failed PHOENIX boot.
func (h *Harness) AdoptPreserved(np *kernel.Process) error {
	if h.proc != nil {
		return fmt.Errorf("recovery: AdoptPreserved on a booted harness")
	}
	if np == nil || np.Machine != h.M {
		return fmt.Errorf("recovery: AdoptPreserved: process not on this harness's machine")
	}
	h.App.SetPersistence(h.persistence())
	h.bind(np)
	h.ccGen++
	h.lastCkpt = h.M.Clock.Now()
	h.event(EvAdopt, fmt.Sprintf("%d preserved pages", np.Handoff().MovedPages))
	if bootCrash := h.runMain(); bootCrash != nil {
		h.Stat.BootFailures++
		h.event(EvFallback, "crash during adopting boot: "+bootCrash.Reason)
		return h.fallbackRestart("adopt boot crash")
	}
	// An adoption is a planned handoff, not a crash recovery: leaving the
	// second-failure grace armed would cold-restart — and lose — the moved
	// state on the first real crash after a migration.
	h.rt.DisarmGrace()
	return nil
}

// event appends a diagnostic event, compacting the log when it reaches
// eventCap: the oldest half is dropped in one copy, which keeps the slice
// chronological, bounds memory at eventCap entries, and amortises to O(1)
// per append.
func (h *Harness) event(kind EventKind, detail string) {
	if len(h.Stat.Events) >= eventCap {
		drop := len(h.Stat.Events) - eventCap/2
		if h.Stat.DroppedByKind == nil {
			h.Stat.DroppedByKind = make(map[EventKind]int)
		}
		for _, e := range h.Stat.Events[:drop] {
			h.Stat.DroppedByKind[e.Kind]++
		}
		kept := copy(h.Stat.Events, h.Stat.Events[drop:])
		h.Stat.Events = h.Stat.Events[:kept]
		h.Stat.DroppedEvents += drop
	}
	h.Stat.Events = append(h.Stat.Events, Event{At: h.M.Clock.Now(), Kind: kind, Detail: detail})
}

// applyLevel makes the application's persistence posture match a ladder
// rung: the vanilla rung runs with persistence off (even the builtin
// recovery state is suspect); the other rungs restore the configured
// posture.
func (h *Harness) applyLevel(l Level) {
	if l == LevelVanilla {
		h.App.SetPersistence(false)
		return
	}
	h.App.SetPersistence(!h.Cfg.DisablePersistence)
}

// ServeRequest executes one externally supplied request end to end,
// including any snapshotting due, failure handling, and recovery. ok and
// effective are the application's verdicts for the request (both false when
// the request crashed the process — the caller sees a failed request while
// the harness recovers). err is non-nil only for simulator problems.
func (h *Harness) ServeRequest(req *workload.Request) (ok, effective bool, err error) {
	// A landed integrity verdict is acted on before the request, or a
	// checkpoint, touches the state it judged.
	if v := h.proc.Verify(); v != nil && v.Landed && !v.Settled {
		if _, err := h.settleVerdict(); err != nil {
			return false, false, err
		}
	}
	h.maybeSnapshot()
	if h.pendingSwitch {
		if err := h.hotSwitch(); err != nil {
			return false, false, err
		}
	}
	h.Stat.Requests++
	// A PHOENIX recovery's cleanup frees its garbage at the first request
	// boundary after the background mark and collect finish: outside the
	// request's rewind domain, so a discarded request cannot undo the frees,
	// and inside Run, so an allocator abort is an ordinary crash.
	if c := h.rt.Cleanup(); c != nil && c.DueBy(h.M.Clock.Now()) {
		if ci := h.proc.Run(c.Reclaim); ci != nil {
			return false, false, h.handleFailure(ci)
		}
	}
	if h.Cfg.RewindDomains && h.rewindable() {
		if err := h.proc.BeginRewindDomain(); err != nil {
			return false, false, err
		}
	}
	ci := h.proc.Run(func() { ok, effective = h.App.Handle(req) })
	now := h.M.Clock.Now()
	if ci == nil {
		if h.proc.AS.DomainActive() {
			if _, err := h.proc.CommitRewindDomain(); err != nil {
				return false, false, err
			}
		}
		h.TL.Record(now, ok, effective)
		if ok {
			h.served++
		}
		if ok && h.pendingResume {
			h.TL.MarkResumed(now)
			h.pendingResume = false
		}
		if ok && h.sup != nil {
			if de, to := h.sup.NoteServing(now); de {
				h.Stat.Deescalations++
				h.event(EvDeescalate, to.String())
				h.applyLevel(to)
			}
		}
		return ok, effective, nil
	}
	return false, false, h.handleFailure(ci)
}

// Step executes the generator's next request via ServeRequest. It returns an
// error only for simulator problems; application failures are handled
// internally.
func (h *Harness) Step() error {
	_, _, err := h.ServeRequest(h.Gen.Next())
	return err
}

// RunRequests executes n requests.
func (h *Harness) RunRequests(n int) error {
	for i := 0; i < n; i++ {
		if err := h.Step(); err != nil {
			return err
		}
	}
	return nil
}

// RunUntil executes requests until the simulated clock passes deadline.
func (h *Harness) RunUntil(deadline time.Duration) error {
	for h.M.Clock.Now() < deadline {
		if err := h.Step(); err != nil {
			return err
		}
	}
	return nil
}

func (h *Harness) maybeSnapshot() {
	if h.Cfg.CheckpointInterval <= 0 {
		return
	}
	now := h.M.Clock.Now()
	if now-h.lastCkpt < h.Cfg.CheckpointInterval {
		return
	}
	h.lastCkpt = now
	switch h.Cfg.Mode {
	case ModeBuiltin:
		h.App.Checkpoint()
		h.Stat.CheckpointsTaken++
	case ModeCRIU:
		h.criuImage = CRIUSnapshot(h.proc)
		h.Stat.CheckpointsTaken++
	case ModePhoenix:
		// PHOENIX leaves the application's own persistence cadence alone;
		// apps with builtin persistence continue checkpointing.
		h.App.Checkpoint()
		h.Stat.CheckpointsTaken++
	}
}

// handleFailure drives the configured recovery mechanism.
func (h *Harness) handleFailure(ci *kernel.CrashInfo) error {
	h.Stat.Failures++
	h.TL.MarkFailure(ci.Time)
	h.pendingResume = true
	h.event(EvCrash, fmt.Sprintf("%s: %s", ci.Sig, ci.Reason))

	h.voidCrossCheck()

	// A hang dwells until the watchdog fires.
	if ci.Sig == kernel.SIGALRM {
		h.M.Clock.Advance(h.Cfg.WatchdogTimeout)
	}
	// The restarted process's persistence timer starts fresh; without this
	// a snapshot due "during" the outage would pollute the downtime
	// measurement.
	defer func() { h.lastCkpt = h.M.Clock.Now() }()

	// Supervision: the breaker may escalate the ladder, the backoff holds the
	// restart, and an exhausted retry budget stops the run instead of
	// crash-looping forever. All timing is simulated.
	level := LevelPhoenix
	if h.sup != nil {
		d := h.sup.OnCrash(h.M.Clock.Now())
		if d.Exhausted {
			return fmt.Errorf("recovery: %w after %d consecutive crashes at level %v",
				ErrRetryBudget, h.sup.ConsecutiveCrashes(), d.Level)
		}
		if d.Tripped {
			h.Stat.BreakerTrips++
			h.Stat.Escalations++
			h.event(EvBreakerTrip, fmt.Sprintf("escalating to %v", d.Level))
			h.event(EvEscalate, d.Level.String())
			h.applyLevel(d.Level)
		}
		if d.Backoff > 0 {
			h.Stat.BackoffTotal += d.Backoff
			h.event(EvBackoff, d.Backoff.String())
			h.M.Clock.Advance(d.Backoff)
		}
		level = d.Level
	}

	switch h.Cfg.Mode {
	case ModeVanilla, ModeBuiltin:
		return h.plainRestart(h.Cfg.Mode.String())
	case ModeCRIU:
		return h.criuRestart()
	case ModePhoenix:
		// Sub-process rungs: rewind the request in place, then (or instead)
		// microreboot the faulting component. Either one that succeeds ends
		// the recovery with the process still alive; one that cannot apply
		// (no open domain, no component graph, unattributed crash, reinit
		// failure) falls through to the next rung down.
		if level == LevelRewind {
			if done, err := h.rewindRecover(); done || err != nil {
				return err
			}
		}
		if level <= LevelMicroreboot {
			if done, err := h.microreboot(ci); done || err != nil {
				return err
			}
		}
		// Process-level recovery from here on: any still-open domain is
		// closed keeping its bytes, so restart semantics are unchanged from
		// the pre-domain driver (the crashed request's partial writes are
		// visible to the restart plan exactly as they always were).
		if h.proc.AS.DomainActive() {
			if _, err := h.proc.CommitRewindDomain(); err != nil {
				return err
			}
		}
		// A process-level recovery decides what becomes of the preserved
		// state, so it first waits for an integrity verdict still in flight;
		// a failing one sends the crash to default recovery.
		if fellBack, err := h.settleVerdict(); fellBack || err != nil {
			return err
		}
		switch level {
		case LevelBuiltin:
			return h.plainRestart("escalated: builtin")
		case LevelVanilla:
			return h.plainRestart("escalated: vanilla")
		}
		return h.phoenixRestart(ci)
	}
	return fmt.Errorf("recovery: unknown mode %v", h.Cfg.Mode)
}

// rewindable reports whether the app consents to rewind domains in its
// current configuration.
func (h *Harness) rewindable() bool {
	ra, ok := h.App.(RewindableApp)
	return ok && ra.Rewindable()
}

// rewindRecover attempts LevelRewind recovery: discard the faulting request's
// rewind domain, rolling its page writes back byte-exactly. The process never
// stopped (Run recovered the panic), so nothing restarts. It reports whether
// the rung applied — false when no domain was open (the app is not
// rewindable, or domains are off).
func (h *Harness) rewindRecover() (bool, error) {
	if !h.proc.AS.DomainActive() {
		return false, nil
	}
	n, err := h.proc.DiscardRewindDomain()
	if err != nil {
		return false, err
	}
	// The discard rolled simulated memory back to the top of the request,
	// where no unsafe region was open — but the unsafe counters are runtime
	// state, not simulated memory, so a crash inside an UnsafeBegin/End
	// bracket leaves them raised. Reset them to match the restored memory:
	// without this, one rewound mid-region crash would poison IsSafe and
	// turn every later process-level restart into an unsafe fallback.
	h.rt.Unsafe().Reset()
	if ro, ok := h.App.(RewindObserver); ok {
		ro.AfterRewind()
	}
	h.Stat.Rewinds++
	h.event(EvRewind, fmt.Sprintf("%d pages restored", n))
	return true, nil
}

// microreboot attempts LevelMicroreboot recovery: discard the in-flight
// request's domain (its partial cross-component writes must not survive the
// component they landed in), then discard and reinitialise the faulting
// component plus its transitive dependents. It reports whether the rung
// applied — false (falling through to a process restart) when the app
// declares no component graph, the crash carries no component attribution,
// or a reinit fails.
func (h *Harness) microreboot(ci *kernel.CrashInfo) (bool, error) {
	ca, ok := h.App.(ComponentApp)
	if !ok {
		return false, nil
	}
	if h.proc.AS.DomainActive() {
		if _, err := h.proc.DiscardRewindDomain(); err != nil {
			return false, err
		}
		// The discard restored memory to the top of the request; Go-side
		// handles must follow before any component reboot walks them.
		if ro, ok := h.App.(RewindObserver); ok {
			ro.AfterRewind()
		}
	}
	if ci.Component == "" {
		return false, nil
	}
	set, err := cascade(ca.Components(), ci.Component)
	if err != nil {
		// Attribution named a component the app never declared; component
		// recovery cannot target anything, so escalate.
		h.event(EvFallback, err.Error())
		return false, nil
	}
	units := 0
	for _, c := range set {
		var n int
		var rebootErr error
		// A reboot walking corrupted structures can itself fault; convert
		// that into an escalation, not a simulator crash.
		if crash := h.proc.Run(func() { n, rebootErr = ca.RebootComponent(c.Name) }); crash != nil {
			h.event(EvFallback, fmt.Sprintf("microreboot %s crashed: %s", c.Name, crash.Reason))
			return false, nil
		}
		if rebootErr != nil {
			h.event(EvFallback, fmt.Sprintf("microreboot %s: %v", c.Name, rebootErr))
			return false, nil
		}
		units += n
	}
	// Same argument as rewindRecover: no handler is running anymore and the
	// faulting component was just reinitialised, so a counter left raised by
	// the mid-region crash no longer describes anything live.
	h.rt.Unsafe().Reset()
	h.M.Clock.Advance(h.M.Model.Microreboot(len(set), units))
	h.Stat.Microreboots++
	h.event(EvMicroreboot, fmt.Sprintf("%s (%d components, %d units)", ci.Component, len(set), units))
	return true, nil
}

// plainRestart tears down and reboots; Builtin recovery happens inside
// App.Main when persistence is on.
func (h *Harness) plainRestart(reason string) error {
	if err := h.fallback(reason); err != nil {
		return err
	}
	h.Stat.OtherRestarts++
	h.event(EvRestart, reason)
	return h.bootAfterRecovery()
}

func (h *Harness) criuRestart() error {
	if h.criuImage == nil {
		return h.plainRestart("criu: no image")
	}
	h.bind(CRIURestore(h.M, h.proc, h.criuImage))
	// Reattaching can itself fail — e.g. a restored Varnish worker cannot
	// re-handshake with its master (§4.3.3); that degenerates to a full
	// restart.
	if crash := h.proc.Run(func() { h.App.Reattach(h.rt) }); crash != nil {
		h.event(EvCRIUReattachFailed, crash.Reason)
		return h.plainRestart("criu reattach failed: " + crash.Reason)
	}
	h.Stat.OtherRestarts++
	h.event(EvCRIURestore, fmt.Sprintf("image@%v", h.criuImage.TakenAt))
	return nil
}

func (h *Harness) phoenixRestart(ci *kernel.CrashInfo) error {
	// Second-failure rule (§3.2): no second PHOENIX attempt shortly after a
	// PHOENIX restart.
	if h.rt.WithinGrace() {
		h.Stat.GraceFallbacks++
		h.event(EvFallback, "second failure within grace window")
		return h.fallbackRestart("second failure")
	}
	plan, fbReason := h.App.PlanRestart(h.rt, ci, h.Cfg.UnsafeRegions)
	if fbReason != "" {
		h.Stat.UnsafeFallbacks++
		h.event(EvFallback, fbReason)
		return h.fallbackRestart(fbReason)
	}
	plan.SkipIntegrityVerify = h.Cfg.DisableChecksums
	np, err := h.rt.Restart(plan)
	if err != nil {
		// preserve_exec aborted and rolled back, so the source address space
		// is intact and the application's default recovery is safe to run.
		h.Stat.RecoveryFaultFallbacks++
		h.event(EvFallback, "preserve_exec failed: "+err.Error())
		return h.fallbackRestart("preserve_exec failed")
	}
	h.bind(np)
	h.served = 0
	h.Stat.PhoenixRestarts++
	h.event(EvPhoenixRestart, "")

	// Boot in recovery mode; a crash here means the preserved state is
	// unusable — fall back to default recovery.
	if bootCrash := h.runMain(); bootCrash != nil {
		h.Stat.BootFailures++
		// The boot may have crashed on corrupted state: a failing verdict,
		// waited for here, names the cause.
		if fellBack, err := h.settleVerdict(); fellBack || err != nil {
			return err
		}
		h.Stat.GraceFallbacks++
		h.event(EvFallback, "crash during phoenix boot: "+bootCrash.Reason)
		return h.fallbackRestart("phoenix boot crash")
	}

	if h.Cfg.CrossCheck {
		if spec, ok := h.App.CrossCheck(h.rt); ok {
			userVerdict := spec.OnVerdict
			gen := h.ccGen
			spec.OnVerdict = func(v core.Verdict) {
				if userVerdict != nil {
					userVerdict(v)
				}
				// A verdict that outlived its incarnation (the clock timer
				// fired after another crash) must not schedule a switch.
				if h.ccGen != gen {
					return
				}
				if !v.Match {
					h.pendingSwitch = true
					h.switchDetail = fmt.Sprintf("diverged keys: %v", v.Diverged)
					h.switchRef = v.Reference
				}
			}
			h.activeCheck = h.rt.StartCrossCheck(spec)
		}
	}
	return nil
}

// voidCrossCheck drops the replaced incarnation's cross-check state: a
// pending hot-switch or an in-flight verdict from the previous process must
// not fire against whatever boots next.
func (h *Harness) voidCrossCheck() {
	h.ccGen++
	h.pendingSwitch = false
	h.switchDetail = ""
	h.switchRef = nil
	h.activeCheck = nil
}

// settleVerdict settles the live incarnation's background integrity verdict
// (kernel.Verify.Settle, which waits for one still in flight) and, when it
// failed, falls back to the application's default recovery, reporting that
// it did. The verdict belongs to the process it judges, so one from a
// replaced incarnation never acts on its successor.
func (h *Harness) settleVerdict() (fellBack bool, err error) {
	v := h.proc.Verify()
	if v == nil || v.Settled {
		return false, nil
	}
	ierr := v.Settle()
	if ierr == nil {
		return false, nil
	}
	h.voidCrossCheck()
	h.Stat.IntegrityFallbacks++
	h.Stat.ServedBeforeVerdict += h.served
	h.event(EvFallback, fmt.Sprintf("integrity: %v (after %d requests)", ierr, h.served))
	defer func() { h.lastCkpt = h.M.Clock.Now() }()
	return true, h.fallbackRestart("preserved-state corruption detected")
}

// SettleVerdict waits for the live incarnation's integrity verdict if one is
// still in flight and acts on it as a request boundary would. Drivers call
// it before judging a run, so no corruption is left undetected in flight.
func (h *Harness) SettleVerdict() error {
	_, err := h.settleVerdict()
	return err
}

// fallbackRestart runs the application's default recovery path.
func (h *Harness) fallbackRestart(reason string) error {
	if err := h.fallback(reason); err != nil {
		return err
	}
	return h.bootAfterRecovery()
}

// bootAfterRecovery runs Main, tolerating at most a few consecutive boot
// crashes (a persistently corrupt on-disk image would loop forever
// otherwise; the paper's scope excludes such cases, §3.5).
func (h *Harness) bootAfterRecovery() error {
	for attempt := 0; attempt < 3; attempt++ {
		crash := h.runMain()
		if crash == nil {
			return nil
		}
		h.Stat.BootFailures++
		h.event(EvBootCrash, crash.Reason)
		if err := h.fallback("boot crash"); err != nil {
			return err
		}
	}
	return fmt.Errorf("recovery: %s could not boot after repeated crashes", h.App.Name())
}

// hotSwitch discards the speculative process and switches to the validated
// recovery state after a cross-check mismatch (§3.6). The default recovery
// ran concurrently in the background process, so the switch itself is
// charged only the base exec cost: the rebuild work happens offline.
func (h *Harness) hotSwitch() error {
	h.pendingSwitch = false
	h.Stat.CrossFallbacks++
	h.event(EvHotSwitch, h.switchDetail)
	var err error
	h.M.Clock.RunOffline(func() {
		if err = h.fallback("cross-check mismatch"); err != nil {
			return
		}
		if rr, ok := h.App.(ReferenceRestorer); ok && h.switchRef != nil {
			err = rr.RestoreReference(h.rt, h.switchRef)
		} else {
			err = h.App.Main(h.rt)
		}
	})
	if err != nil {
		return err
	}
	// The switch is visible to clients as one brief process swap.
	h.M.Clock.Advance(h.M.Model.Exec())
	return nil
}

// killVA is an address no layout maps: far above every image (which sit
// near the builder bases) and far below the ASLR slide floor (1<<45).
const killVA = mem.VAddr(0x2_0000_0000)

// Kill is the synthetic kill -9 for drivers that crash the process outside
// ServeRequest: the serving fabric's replica kills, the exploration engine
// and the recovery campaigns. It reads killVA inside the process, checks
// that the crash registered, and recovers through the failure path.
func (h *Harness) Kill() error {
	ci := h.Proc().Run(func() { h.Proc().AS.ReadU64(killVA) })
	if ci == nil {
		return errors.New("synthetic crash did not register")
	}
	return h.handleFailure(ci)
}

// CrossCheckResult returns the latest cross-check verdict (nil if none ran
// or the check is still pending).
func (h *Harness) CrossCheckResult() *core.Verdict {
	if h.activeCheck == nil {
		return nil
	}
	return h.activeCheck.Verdict()
}

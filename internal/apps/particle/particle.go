// Package particle is the repository's VPIC analogue: a one-dimensional
// electrostatic particle-in-cell simulation whose particles and field grids
// — the preserved state of Table 3 — live in simulated memory.
//
// Each iteration runs three phx_stage stages (§3.7): push (advance particle
// positions/velocities), deposit (accumulate charge density onto the grid),
// and solve (update the electric field). Builtin recovery loads a periodic
// checkpoint of particles and fields and recomputes lost steps; PHOENIX
// resumes inside the crashed step.
package particle

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"phoenix/internal/core"
	"phoenix/internal/faultinject"
	"phoenix/internal/heap"
	"phoenix/internal/kernel"
	"phoenix/internal/linker"
	"phoenix/internal/mem"
	"phoenix/internal/simds"
	"phoenix/internal/workload"
)

// Config parameterises the simulation.
type Config struct {
	Particles int
	Cells     int
	Dt        float64
	// WorkScale multiplies charged compute units (stands in for the 3D
	// field solve and particle sorting the analogue does not model).
	WorkScale       int
	BootCost        time.Duration
	PhoenixBootCost time.Duration
}

func (c *Config) fill() {
	if c.Particles == 0 {
		c.Particles = 4000
	}
	if c.Cells == 0 {
		c.Cells = 128
	}
	if c.Dt == 0 {
		c.Dt = 0.05
	}
	if c.WorkScale == 0 {
		c.WorkScale = 50
	}
	if c.BootCost == 0 {
		c.BootCost = 3 * time.Second // deck parse + particle injection
	}
	if c.PhoenixBootCost == 0 {
		c.PhoenixBootCost = 120 * time.Millisecond
	}
}

const ckptFile = "particle.ckpt"

// Header layout: 0 magic, 8 N, 16 cells, 24 step, 32 pos ptr, 40 vel ptr,
// 48 efield ptr, 56 density ptr, 64 stage vault ptr, 72..95 stage tracker.
const (
	hdrSize    = 96
	hdrMagic   = 0x70696373696d // "picsim"
	offMagic   = 0
	offN       = 8
	offCells   = 16
	offStep    = 24
	offPos     = 32
	offVel     = 40
	offE       = 48
	offRho     = 56
	offVault   = 64
	offTracker = 72
)

// Sim is the program.
type Sim struct {
	cfg Config
	img *linker.Image
	inj *faultinject.Injector

	rt          *core.Runtime
	heap        *heap.Heap
	hdr         mem.VAddr
	stages      *core.Stages
	vault       *core.StageVault
	persistence bool

	highWater uint64
	armedBug  string
	// crashMidStage makes the named stage body panic halfway through (tests
	// of the rollback path).
	crashMidStage string
	stats         Stats
}

// Stats counts simulation activity.
type Stats struct {
	Steps       uint64
	Recomputed  uint64
	Checkpoints uint64
	CkptLoads   uint64
}

// New creates the simulation program.
func New(cfg Config, inj *faultinject.Injector) *Sim {
	cfg.fill()
	b := linker.NewBuilder("particle", 0x0010_0000)
	b.Var("vpic.deck", 64, linker.SecData)
	s := &Sim{cfg: cfg, img: b.Build(), inj: inj}
	if inj != nil {
		inj.RegisterAll(Sites())
	}
	return s
}

// Sites returns the injection sites in the step loop.
func Sites() []faultinject.Site {
	return []faultinject.Site{
		{ID: "pic.push.vel", Func: "advance_p", Kind: faultinject.KindValue, Modifying: true},
		{ID: "pic.push.wrap", Func: "advance_p", Kind: faultinject.KindCond, Modifying: true},
		{ID: "pic.deposit.cell", Func: "accumulate_rho", Kind: faultinject.KindValue, Modifying: true},
		{ID: "pic.deposit.add", Func: "accumulate_rho", Kind: faultinject.KindAction, Modifying: true},
		{ID: "pic.solve.step", Func: "advance_e", Kind: faultinject.KindValue, Modifying: true},
		{ID: "pic.step.bound", Func: "vpic_simulation::advance", Kind: faultinject.KindCond},
	}
}

// Name implements recovery.App.
func (s *Sim) Name() string { return "particle" }

// Image implements recovery.App.
func (s *Sim) Image() *linker.Image { return s.img }

// SetPersistence implements recovery.App.
func (s *Sim) SetPersistence(on bool) { s.persistence = on }

// Stats returns counters.
func (s *Sim) Stats() Stats { return s.stats }

// Step returns the committed step count from simulated memory.
func (s *Sim) Step() uint64 { return s.rt.Proc().AS.ReadU64(s.hdr + offStep) }

func (s *Sim) f64(a mem.VAddr) float64 { return math.Float64frombits(s.rt.Proc().AS.ReadU64(a)) }
func (s *Sim) setF64(a mem.VAddr, v float64) {
	s.rt.Proc().AS.WriteU64(a, math.Float64bits(v))
}

func (s *Sim) charge(units int) {
	m := s.rt.Proc().Machine
	m.Clock.Advance(time.Duration(units*s.cfg.WorkScale) * m.Model.ComputePerUnit)
}

// Main implements recovery.App.
func (s *Sim) Main(rt *core.Runtime) error {
	s.rt = rt
	m := rt.Proc().Machine
	h, err := rt.OpenHeap(heap.Options{Name: "pic"})
	if err != nil {
		return fmt.Errorf("particle: open heap: %w", err)
	}
	s.heap = h
	as := rt.Proc().AS

	if rt.IsRecoveryMode() {
		m.Clock.Advance(s.cfg.PhoenixBootCost)
		hdr := rt.RecoveryInfo()
		if hdr == mem.NullPtr || as.ReadU64(hdr+offMagic) != hdrMagic {
			return fmt.Errorf("particle: recovery info invalid")
		}
		s.hdr = hdr
		ctx := simds.NewCtx(h, m.Clock, m.Model)
		s.vault = core.OpenStageVault(ctx, as.ReadPtr(hdr+offVault))
		s.stages = rt.NewStages(hdr + offTracker)
		rt.FinishRecovery(nil) // >90% of memory preserved: skip cleanup (§4.2.2)
		return nil
	}

	m.Clock.Advance(s.cfg.BootCost)
	n, g := s.cfg.Particles, s.cfg.Cells
	s.hdr = h.Alloc(hdrSize)
	pos := h.Alloc(n * 8)
	vel := h.Alloc(n * 8)
	ef := h.Alloc(g * 8)
	rho := h.Alloc(g * 8)
	if s.hdr == mem.NullPtr || pos == mem.NullPtr || vel == mem.NullPtr ||
		ef == mem.NullPtr || rho == mem.NullPtr {
		return fmt.Errorf("particle: workspace allocation failed")
	}
	as.WriteU64(s.hdr+offMagic, hdrMagic)
	as.WriteU64(s.hdr+offN, uint64(n))
	as.WriteU64(s.hdr+offCells, uint64(g))
	as.WriteU64(s.hdr+offStep, 0)
	as.WritePtr(s.hdr+offPos, pos)
	as.WritePtr(s.hdr+offVel, vel)
	as.WritePtr(s.hdr+offE, ef)
	as.WritePtr(s.hdr+offRho, rho)

	// Two-stream instability initial conditions, deterministic per index.
	for i := 0; i < n; i++ {
		x := (float64(i) + 0.5) / float64(n)
		v := 1.0
		if i%2 == 1 {
			v = -1.0
		}
		v += 0.01 * math.Sin(2*math.Pi*x*3+float64(i%7))
		s.setF64(pos+mem.VAddr(i*8), x)
		s.setF64(vel+mem.VAddr(i*8), v)
	}
	for c := 0; c < g; c++ {
		s.setF64(ef+mem.VAddr(c*8), 0)
		s.setF64(rho+mem.VAddr(c*8), 0)
	}
	s.charge(n + g)
	ctx := simds.NewCtx(h, m.Clock, m.Model)
	s.vault = core.NewStageVault(ctx)
	as.WritePtr(s.hdr+offVault, s.vault.Addr())
	s.stages = rt.NewStages(s.hdr + offTracker)
	if s.persistence {
		s.loadCheckpoint()
	}
	rt.FinishRecovery(nil)
	return nil
}

// Handle implements recovery.App: one request = one simulation step.
func (s *Sim) Handle(req *workload.Request) (ok, effective bool) {
	if s.armedBug != "" {
		bug := s.armedBug
		s.armedBug = ""
		s.fireBug(bug)
	}
	as := s.rt.Proc().AS
	inj := s.inj
	if inj != nil && !inj.Cond("pic.step.bound", true) {
		panic(&kernel.Crash{Sig: kernel.SIGALRM, Reason: "particle: step loop bound inverted"})
	}
	n := int(as.ReadU64(s.hdr + offN))
	g := int(as.ReadU64(s.hdr + offCells))
	pos := as.ReadPtr(s.hdr + offPos)
	vel := as.ReadPtr(s.hdr + offVel)
	ef := as.ReadPtr(s.hdr + offE)
	rho := as.ReadPtr(s.hdr + offRho)
	step := s.Step()
	dt := s.cfg.Dt

	s.stages.BeginIteration(step)

	// Stage 1: push — advances positions and velocities in place; not
	// idempotent, so the preserve hook saves both arrays' pre-images.
	s.stages.Run("push", func() {
		for i := 0; i < n; i++ {
			if i == n/2 && s.crashMidStage == "push" {
				s.crashMidStage = ""
				panic(&kernel.Crash{Sig: kernel.SIGSEGV, Reason: "particle: crash mid-push"})
			}
			x := s.f64(pos + mem.VAddr(i*8))
			cell := int(x * float64(g))
			if cell >= g {
				cell = g - 1
			}
			if cell < 0 {
				cell = 0
			}
			e := s.f64(ef + mem.VAddr(cell*8))
			v := s.f64(vel+mem.VAddr(i*8)) - e*dt
			if inj != nil {
				v = math.Float64frombits(inj.U64("pic.push.vel", math.Float64bits(v)))
			}
			x += v * dt / float64(g)
			wrap := x >= 1.0 || x < 0.0
			if inj != nil {
				wrap = inj.Cond("pic.push.wrap", wrap)
			}
			if wrap {
				x -= math.Floor(x)
			}
			s.setF64(pos+mem.VAddr(i*8), x)
			s.setF64(vel+mem.VAddr(i*8), v)
		}
		s.charge(n)
	}, func() {
		s.vault.Save("pos", pos, n*8)
		s.vault.Save("vel", vel, n*8)
	}, func() {
		s.vault.Restore("pos", pos)
		s.vault.Restore("vel", vel)
	})

	// Stage 2: deposit — accumulate charge density. The body re-zeroes the
	// density grid before accumulating, so a re-run is idempotent: nil
	// hooks (the recommended §3.7 pattern).
	s.stages.Run("deposit", func() {
		for c := 0; c < g; c++ {
			s.setF64(rho+mem.VAddr(c*8), 0)
		}
		for i := 0; i < n; i++ {
			x := s.f64(pos + mem.VAddr(i*8))
			cell := int(x * float64(g))
			if inj != nil {
				cell = inj.Int("pic.deposit.cell", cell)
			}
			if cell >= g || cell < 0 {
				// Out-of-bounds deposit: in VPIC this scribbles past the
				// accumulator array (the VP1 class); here it faults.
				as.ReadU64(mem.VAddr(uint64(s.hdr) + uint64(cell)*1e9))
			}
			addr := rho + mem.VAddr(cell*8)
			add := func() { s.setF64(addr, s.f64(addr)+1.0/float64(n)) }
			if inj != nil {
				inj.Do("pic.deposit.add", add)
			} else {
				add()
			}
		}
		s.charge(n + g)
	}, nil, nil)

	// Stage 3: solve — relaxes the field in place (not idempotent): the
	// preserve hook saves the field's pre-image.
	s.stages.Run("solve", func() {
		mean := 0.0
		for c := 0; c < g; c++ {
			mean += s.f64(rho + mem.VAddr(c*8))
		}
		mean /= float64(g)
		for c := 0; c < g; c++ {
			if c == g/2 && s.crashMidStage == "solve" {
				s.crashMidStage = ""
				panic(&kernel.Crash{Sig: kernel.SIGSEGV, Reason: "particle: crash mid-solve"})
			}
			grad := s.f64(rho+mem.VAddr(c*8)) - mean
			if inj != nil {
				grad = math.Float64frombits(inj.U64("pic.solve.step", math.Float64bits(grad)))
			}
			e := 0.9*s.f64(ef+mem.VAddr(c*8)) + grad*dt
			s.setF64(ef+mem.VAddr(c*8), e)
		}
		as.WriteU64(s.hdr+offStep, step+1)
		s.charge(2 * g)
	}, func() {
		s.vault.Save("efield", ef, g*8)
	}, func() {
		s.vault.Restore("efield", ef)
	})

	s.stages.EndIteration()
	s.stats.Steps++

	done := s.Step()
	if done <= s.highWater {
		s.stats.Recomputed++
		return true, false
	}
	s.highWater = done
	return true, true
}

// Rewindable implements recovery.RewindableApp: a simulation step touches
// only simulated memory (checkpoints are written by Checkpoint, outside the
// request path), so a rewind-domain discard rolls the whole step back.
func (s *Sim) Rewindable() bool { return true }

// Energy returns total kinetic + field energy (a physics sanity invariant:
// bounded over the run).
func (s *Sim) Energy() float64 {
	as := s.rt.Proc().AS
	n := int(as.ReadU64(s.hdr + offN))
	g := int(as.ReadU64(s.hdr + offCells))
	vel := as.ReadPtr(s.hdr + offVel)
	ef := as.ReadPtr(s.hdr + offE)
	var ke, fe float64
	for i := 0; i < n; i++ {
		v := s.f64(vel + mem.VAddr(i*8))
		ke += v * v
	}
	for c := 0; c < g; c++ {
		e := s.f64(ef + mem.VAddr(c*8))
		fe += e * e
	}
	return ke/float64(n) + fe/float64(g)
}

// Checkpoint implements recovery.App: dump particles and fields.
func (s *Sim) Checkpoint() {
	if !s.persistence {
		return
	}
	m := s.rt.Proc().Machine
	as := s.rt.Proc().AS
	n := int(as.ReadU64(s.hdr + offN))
	g := int(as.ReadU64(s.hdr + offCells))
	buf := make([]byte, 8+(2*n+2*g)*8)
	binary.LittleEndian.PutUint64(buf, s.Step())
	off := 8
	dump := func(base mem.VAddr, cnt int) {
		for i := 0; i < cnt; i++ {
			binary.LittleEndian.PutUint64(buf[off:], as.ReadU64(base+mem.VAddr(i*8)))
			off += 8
		}
	}
	dump(as.ReadPtr(s.hdr+offPos), n)
	dump(as.ReadPtr(s.hdr+offVel), n)
	dump(as.ReadPtr(s.hdr+offE), g)
	dump(as.ReadPtr(s.hdr+offRho), g)
	m.Clock.Advance(time.Duration(len(buf)) * m.Model.MarshalPerByte)
	m.Disk.WriteFile(ckptFile, buf)
	s.stats.Checkpoints++
}

// loadCheckpoint restores particles, fields, and the step counter.
func (s *Sim) loadCheckpoint() {
	m := s.rt.Proc().Machine
	buf, ok := m.Disk.ReadFile(ckptFile)
	if !ok || len(buf) < 8 {
		return
	}
	as := s.rt.Proc().AS
	n := int(as.ReadU64(s.hdr + offN))
	g := int(as.ReadU64(s.hdr + offCells))
	if len(buf) != 8+(2*n+2*g)*8 {
		panic(&kernel.Crash{Sig: kernel.SIGABRT, Reason: "particle: corrupt checkpoint"})
	}
	m.Clock.Advance(time.Duration(len(buf)) * m.Model.UnmarshalPerByte)
	as.WriteU64(s.hdr+offStep, binary.LittleEndian.Uint64(buf))
	off := 8
	load := func(base mem.VAddr, cnt int) {
		for i := 0; i < cnt; i++ {
			as.WriteU64(base+mem.VAddr(i*8), binary.LittleEndian.Uint64(buf[off:]))
			off += 8
		}
	}
	load(as.ReadPtr(s.hdr+offPos), n)
	load(as.ReadPtr(s.hdr+offVel), n)
	load(as.ReadPtr(s.hdr+offE), g)
	load(as.ReadPtr(s.hdr+offRho), g)
	s.charge(n + g)
	s.stats.CkptLoads++
}

// PlanRestart implements recovery.App: whole-heap preservation with stage
// tracking; no unsafe regions (§3.7).
func (s *Sim) PlanRestart(rt *core.Runtime, ci *kernel.CrashInfo, useUnsafe bool) (core.RestartPlan, string) {
	return core.RestartPlan{InfoAddr: s.hdr, WithHeap: true}, ""
}

// Reattach implements recovery.App (CRIU restore).
func (s *Sim) Reattach(rt *core.Runtime) {
	s.rt = rt
	h, err := heap.Attach(rt.Proc().AS, core.DefaultHeapBase, heap.Options{Name: "pic"})
	if err != nil {
		panic(&kernel.Crash{Sig: kernel.SIGABRT, Reason: "particle: criu reattach: " + err.Error()})
	}
	s.heap = h
	s.stages = rt.NewStages(s.hdr + offTracker)
}

// Dump implements recovery.App: step count plus checksums of the state
// arrays (chunked, so validation localises corruption).
func (s *Sim) Dump() core.StateDump {
	out := core.StateDump{}
	as := s.rt.Proc().AS
	n := int(as.ReadU64(s.hdr + offN))
	g := int(as.ReadU64(s.hdr + offCells))
	out["step"] = fmt.Sprint(s.Step())
	sum := func(base mem.VAddr, cnt int, tag string) {
		const chunk = 512
		for lo := 0; lo < cnt; lo += chunk {
			hi := lo + chunk
			if hi > cnt {
				hi = cnt
			}
			var h uint64 = 14695981039346656037
			for i := lo; i < hi; i++ {
				h = (h ^ as.ReadU64(base+mem.VAddr(i*8))) * 1099511628211
			}
			out[fmt.Sprintf("%s-%05d", tag, lo)] = fmt.Sprintf("%x", h)
		}
	}
	sum(as.ReadPtr(s.hdr+offPos), n, "pos")
	sum(as.ReadPtr(s.hdr+offVel), n, "vel")
	sum(as.ReadPtr(s.hdr+offE), g, "efield")
	return out
}

// CrossCheck implements recovery.App (not wired for compute apps).
func (s *Sim) CrossCheck(rt *core.Runtime) (core.CrossCheckSpec, bool) {
	return core.CrossCheckSpec{}, false
}

// --- real-bug scenario (Table 5, VP1) ---

// ArmBug schedules VP1: an out-of-bound particle index whose revert was
// forgotten on an error path (VPIC #118).
func (s *Sim) ArmBug(name string) { s.armedBug = name }

func (s *Sim) fireBug(name string) {
	switch name {
	case "VP1":
		// The mover retries a particle with an unreverted index and walks
		// off the accumulator array.
		s.rt.Proc().AS.ReadU64(mem.VAddr(0xFFFF_F000_0000))
	default:
		panic(fmt.Sprintf("particle: unknown bug %q", name))
	}
}

// Package boost is the repository's XGBoost analogue: gradient-boosted
// regression stumps trained on a synthetic dataset, with every long-lived
// array — feature matrix, labels, predictions, gradients, and the model
// itself — living in simulated memory.
//
// Preserved state (Table 3): "gradients and model" plus the large
// calculation workspace that dominates memory and reinitialisation time
// (§4.2.1). Progress recovery uses phx_stage (§3.7) with the iteration split
// into the three hooks of Figure 8: predict, gradient, update. Builtin
// recovery checkpoints the model periodically and recomputes lost
// iterations; Vanilla recomputes from scratch; PHOENIX resumes inside the
// crashed iteration.
package boost

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

// Config parameterises training.
type Config struct {
	Samples  int
	Features int
	// MaxIters bounds the model array.
	MaxIters int
	// LearningRate scales each stump's contribution.
	LearningRate float64
	// WorkScale multiplies charged compute units, standing in for the tree
	// depth and boosting internals the analogue does not model (calibrates
	// per-iteration time toward the paper's multi-second iterations).
	WorkScale       int
	BootCost        time.Duration
	PhoenixBootCost time.Duration
}

func (c *Config) fill() {
	if c.Samples == 0 {
		c.Samples = 2000
	}
	if c.Features == 0 {
		c.Features = 8
	}
	if c.MaxIters == 0 {
		c.MaxIters = 512
	}
	if c.LearningRate == 0 {
		c.LearningRate = 0.3
	}
	if c.WorkScale == 0 {
		c.WorkScale = 100
	}
	if c.BootCost == 0 {
		c.BootCost = 2 * time.Second // dataset load + DMatrix construction
	}
	if c.PhoenixBootCost == 0 {
		c.PhoenixBootCost = 100 * time.Millisecond
	}
}

const ckptFile = "boost.ckpt"

// Header block layout (the recovery info points here):
//
//	 0: magic, 8: N, 16: F, 24: ntrees, 32: trees array ptr,
//	40: X ptr, 48: y ptr, 56: preds ptr, 64: grads ptr, 72: stage vault ptr,
//	80..103: stage tracker (core.StageTrackerSize)
const (
	hdrSize    = 104
	hdrMagic   = 0x626f6f7374 // "boost"
	offMagic   = 0
	offN       = 8
	offF       = 16
	offNTrees  = 24
	offTrees   = 32
	offX       = 40
	offY       = 48
	offPreds   = 56
	offGrads   = 64
	offVault   = 72
	offTracker = 80
)

// treeSize is one stump's serialized size: feature, threshold, left, right.
const treeSize = 32

// Trainer is the program.
type Trainer struct {
	cfg Config
	img *linker.Image
	inj *faultinject.Injector

	rt          *core.Runtime
	heap        *heap.Heap
	hdr         mem.VAddr
	stages      *core.Stages
	vault       *core.StageVault
	persistence bool

	// highWater is the most iterations ever completed — re-running earlier
	// iterations after a restart is recompute, not progress.
	highWater uint64

	armedBug  string
	armedComp string
	// crashMidStage makes the named stage body panic halfway through its
	// sample loop (tests of the rollback path).
	crashMidStage string
	stats         Stats
}

// Stats counts training activity.
type Stats struct {
	Iterations  uint64
	Recomputed  uint64
	Checkpoints uint64
	CkptLoads   uint64
}

// New creates the trainer.
func New(cfg Config, inj *faultinject.Injector) *Trainer {
	cfg.fill()
	b := linker.NewBuilder("boost", 0x0010_0000)
	b.Var("boost.params", 64, linker.SecData)
	tr := &Trainer{cfg: cfg, img: b.Build(), inj: inj}
	if inj != nil {
		inj.RegisterAll(Sites())
	}
	return tr
}

// Sites returns the injection sites in the training loop.
func Sites() []faultinject.Site {
	return []faultinject.Site{
		{ID: "boost.pred.apply", Func: "PredictRaw", Kind: faultinject.KindValue},
		{ID: "boost.grad.residual", Func: "GetGradient", Kind: faultinject.KindValue, Modifying: true},
		{ID: "boost.split.gain", Func: "FindBestSplit", Kind: faultinject.KindCond, Modifying: true},
		{ID: "boost.update.commit", Func: "CommitModel", Kind: faultinject.KindAction, Modifying: true},
		{ID: "boost.update.count", Func: "CommitModel", Kind: faultinject.KindValue, Modifying: true},
		{ID: "boost.iter.bound", Func: "UpdateOneIter", Kind: faultinject.KindCond},
	}
}

// Name implements recovery.App.
func (tr *Trainer) Name() string { return "boost" }

// Image implements recovery.App.
func (tr *Trainer) Image() *linker.Image { return tr.img }

// SetPersistence implements recovery.App.
func (tr *Trainer) SetPersistence(on bool) { tr.persistence = on }

// Stats returns counters.
func (tr *Trainer) Stats() Stats { return tr.stats }

// CompletedIters returns the committed iteration count from simulated
// memory.
func (tr *Trainer) CompletedIters() uint64 {
	return tr.rt.Proc().AS.ReadU64(tr.hdr + offNTrees)
}

// synthFeature deterministically generates sample i's feature f.
func synthFeature(i, f int) float64 {
	x := uint64(i)*0x9E3779B97F4A7C15 + uint64(f)*0xBF58476D1CE4E5B9 + 1
	x ^= x >> 31
	x *= 0x94D049BB133111EB
	x ^= x >> 29
	return float64(x%10000) / 10000.0
}

// synthLabel is the ground-truth function the model learns.
func synthLabel(i, features int) float64 {
	v := 0.0
	for f := 0; f < features; f++ {
		w := float64(f%3) - 1.0
		v += w * synthFeature(i, f)
	}
	return v + 0.05*math.Sin(float64(i))
}

func (tr *Trainer) f64(addr mem.VAddr) float64 {
	return math.Float64frombits(tr.rt.Proc().AS.ReadU64(addr))
}

func (tr *Trainer) setF64(addr mem.VAddr, v float64) {
	tr.rt.Proc().AS.WriteU64(addr, math.Float64bits(v))
}

// Main implements recovery.App.
func (tr *Trainer) Main(rt *core.Runtime) error {
	tr.rt = rt
	m := rt.Proc().Machine
	h, err := rt.OpenHeap(heap.Options{Name: "boost"})
	if err != nil {
		return fmt.Errorf("boost: open heap: %w", err)
	}
	tr.heap = h
	as := rt.Proc().AS

	if rt.IsRecoveryMode() {
		m.Clock.Advance(tr.cfg.PhoenixBootCost)
		hdr := rt.RecoveryInfo()
		if hdr == mem.NullPtr || as.ReadU64(hdr+offMagic) != hdrMagic {
			return fmt.Errorf("boost: recovery info invalid")
		}
		tr.hdr = hdr
		ctx := simds.NewCtx(h, m.Clock, m.Model)
		tr.vault = core.OpenStageVault(ctx, as.ReadPtr(hdr+offVault))
		tr.stages = rt.NewStages(hdr + offTracker)
		tr.repairComponents()
		rt.FinishRecovery(nil) // workspace dominates memory: skip cleanup (§4.2.2)
		return nil
	}

	m.Clock.Advance(tr.cfg.BootCost)
	n, f := tr.cfg.Samples, tr.cfg.Features
	tr.hdr = h.Alloc(hdrSize)
	X := h.Alloc(n * f * 8)
	y := h.Alloc(n * 8)
	preds := h.Alloc(n * 8)
	grads := h.Alloc(n * 8)
	trees := h.Alloc(tr.cfg.MaxIters * 8)
	if tr.hdr == mem.NullPtr || X == mem.NullPtr || y == mem.NullPtr ||
		preds == mem.NullPtr || grads == mem.NullPtr || trees == mem.NullPtr {
		return fmt.Errorf("boost: workspace allocation failed")
	}
	as.WriteU64(tr.hdr+offMagic, hdrMagic)
	as.WriteU64(tr.hdr+offN, uint64(n))
	as.WriteU64(tr.hdr+offF, uint64(f))
	as.WriteU64(tr.hdr+offNTrees, 0)
	as.WritePtr(tr.hdr+offTrees, trees)
	as.WritePtr(tr.hdr+offX, X)
	as.WritePtr(tr.hdr+offY, y)
	as.WritePtr(tr.hdr+offPreds, preds)
	as.WritePtr(tr.hdr+offGrads, grads)
	as.Zero(trees, tr.cfg.MaxIters*8)

	for i := 0; i < n; i++ {
		for j := 0; j < f; j++ {
			tr.setF64(X+mem.VAddr((i*f+j)*8), synthFeature(i, j))
		}
		tr.setF64(y+mem.VAddr(i*8), synthLabel(i, f))
		tr.setF64(preds+mem.VAddr(i*8), 0)
		tr.setF64(grads+mem.VAddr(i*8), 0)
	}
	tr.charge(n * f)
	ctx := simds.NewCtx(h, m.Clock, m.Model)
	tr.vault = core.NewStageVault(ctx)
	as.WritePtr(tr.hdr+offVault, tr.vault.Addr())
	tr.stages = rt.NewStages(tr.hdr + offTracker)

	if tr.persistence {
		tr.loadCheckpoint(h)
	}
	rt.FinishRecovery(nil)
	return nil
}

// charge advances the clock for units of compute, scaled by WorkScale.
func (tr *Trainer) charge(units int) {
	m := tr.rt.Proc().Machine
	m.Clock.Advance(time.Duration(units*tr.cfg.WorkScale) * m.Model.ComputePerUnit)
}

// Handle implements recovery.App: one request = one boosting iteration.
// effective=false marks recomputation of previously completed work.
func (tr *Trainer) Handle(req *workload.Request) (ok, effective bool) {
	if tr.armedComp != "" {
		comp := tr.armedComp
		tr.armedComp = ""
		tr.fireComponentCrash(comp)
	}
	if tr.armedBug != "" {
		bug := tr.armedBug
		tr.armedBug = ""
		tr.fireBug(bug)
	}
	as := tr.rt.Proc().AS
	it := tr.CompletedIters()
	if it >= uint64(tr.cfg.MaxIters) {
		return true, false // model full; nothing to do
	}
	inj := tr.inj
	if inj != nil && !inj.Cond("boost.iter.bound", true) {
		panic(&kernel.Crash{Sig: kernel.SIGALRM, Reason: "boost: iteration loop bound inverted"})
	}

	n := int(as.ReadU64(tr.hdr + offN))
	f := int(as.ReadU64(tr.hdr + offF))
	X := as.ReadPtr(tr.hdr + offX)
	y := as.ReadPtr(tr.hdr + offY)
	preds := as.ReadPtr(tr.hdr + offPreds)
	grads := as.ReadPtr(tr.hdr + offGrads)
	trees := as.ReadPtr(tr.hdr + offTrees)

	tr.stages.BeginIteration(it)

	// Stage 1: predict — fold the latest committed tree into preds. The
	// body mutates preds in place and is NOT idempotent, so the preserve
	// hook saves the pre-image and a mid-stage crash rolls back before the
	// re-run (otherwise the tree would be applied twice).
	tr.stages.Run("predict", func() {
		if it > 0 {
			tree := as.ReadPtr(trees + mem.VAddr((it-1)*8))
			feat := int(as.ReadU64(tree))
			thr := math.Float64frombits(as.ReadU64(tree + 8))
			left := math.Float64frombits(as.ReadU64(tree + 16))
			right := math.Float64frombits(as.ReadU64(tree + 24))
			for i := 0; i < n; i++ {
				if i == n/2 && tr.crashMidStage == "predict" {
					tr.crashMidStage = ""
					panic(&kernel.Crash{Sig: kernel.SIGSEGV, Reason: "boost: crash mid-predict"})
				}
				x := tr.f64(X + mem.VAddr((i*f+feat)*8))
				delta := left
				if x >= thr {
					delta = right
				}
				if inj != nil {
					delta = math.Float64frombits(inj.U64("boost.pred.apply", math.Float64bits(delta)))
				}
				tr.setF64(preds+mem.VAddr(i*8), tr.f64(preds+mem.VAddr(i*8))+tr.cfg.LearningRate*delta)
			}
		}
		tr.charge(n)
	}, func() {
		tr.vault.Save("preds", preds, n*8)
	}, func() {
		tr.vault.Restore("preds", preds)
	})

	// Stage 2: gradient — residuals for squared loss.
	tr.stages.Run("gradient", func() {
		for i := 0; i < n; i++ {
			g := tr.f64(y+mem.VAddr(i*8)) - tr.f64(preds+mem.VAddr(i*8))
			if inj != nil {
				g = math.Float64frombits(inj.U64("boost.grad.residual", math.Float64bits(g)))
			}
			tr.setF64(grads+mem.VAddr(i*8), g)
		}
		tr.charge(n)
	}, nil, nil)

	// Stage 3: update — fit a stump to the gradients and commit it into the
	// model slot for this iteration (idempotent on re-run).
	tr.stages.Run("update", func() {
		feat, thr, left, right := tr.fitStump(n, f, X, grads)
		tree := tr.heap.Alloc(treeSize)
		if tree == mem.NullPtr {
			panic(&kernel.Crash{Sig: kernel.SIGABRT, Reason: "boost: out of memory for tree"})
		}
		as.WriteU64(tree, uint64(feat))
		as.WriteU64(tree+8, math.Float64bits(thr))
		as.WriteU64(tree+16, math.Float64bits(left))
		as.WriteU64(tree+24, math.Float64bits(right))
		commit := func() { as.WritePtr(trees+mem.VAddr(it*8), tree) }
		if inj != nil {
			inj.Do("boost.update.commit", commit)
		} else {
			commit()
		}
		count := it + 1
		if inj != nil {
			count = inj.U64("boost.update.count", count)
		}
		as.WriteU64(tr.hdr+offNTrees, count)
		tr.charge(n * f)
	}, nil, nil)

	tr.stages.EndIteration()
	tr.stats.Iterations++

	done := tr.CompletedIters()
	if done <= tr.highWater {
		tr.stats.Recomputed++
		return true, false
	}
	tr.highWater = done
	return true, true
}

// fitStump finds the best single split on the gradients.
func (tr *Trainer) fitStump(n, f int, X, grads mem.VAddr) (feat int, thr, left, right float64) {
	bestGain := math.Inf(-1)
	feat, thr = 0, 0.5
	for j := 0; j < f; j++ {
		for _, cand := range []float64{0.2, 0.35, 0.5, 0.65, 0.8} {
			var sumL, sumR float64
			var nL, nR int
			for i := 0; i < n; i++ {
				g := tr.f64(grads + mem.VAddr(i*8))
				if tr.f64(X+mem.VAddr((i*f+j)*8)) < cand {
					sumL += g
					nL++
				} else {
					sumR += g
					nR++
				}
			}
			if nL == 0 || nR == 0 {
				continue
			}
			gain := sumL*sumL/float64(nL) + sumR*sumR/float64(nR)
			better := gain > bestGain
			if tr.inj != nil {
				better = tr.inj.Cond("boost.split.gain", better)
			}
			if better {
				bestGain = gain
				feat, thr = j, cand
				left, right = sumL/float64(nL), sumR/float64(nR)
			}
		}
	}
	return feat, thr, left, right
}

// RMSE computes the current training error (used by the progress figure).
func (tr *Trainer) RMSE() float64 {
	as := tr.rt.Proc().AS
	n := int(as.ReadU64(tr.hdr + offN))
	y := as.ReadPtr(tr.hdr + offY)
	preds := as.ReadPtr(tr.hdr + offPreds)
	var sum float64
	for i := 0; i < n; i++ {
		d := tr.f64(y+mem.VAddr(i*8)) - tr.f64(preds+mem.VAddr(i*8))
		sum += d * d
	}
	return math.Sqrt(sum / float64(n))
}

// Checkpoint implements recovery.App: serialize the committed model.
func (tr *Trainer) Checkpoint() {
	if !tr.persistence {
		return
	}
	m := tr.rt.Proc().Machine
	as := tr.rt.Proc().AS
	nt := tr.CompletedIters()
	trees := as.ReadPtr(tr.hdr + offTrees)
	buf := make([]byte, 8+int(nt)*treeSize)
	binary.LittleEndian.PutUint64(buf, nt)
	for i := uint64(0); i < nt; i++ {
		tree := as.ReadPtr(trees + mem.VAddr(i*8))
		for w := 0; w < 4; w++ {
			binary.LittleEndian.PutUint64(buf[8+int(i)*treeSize+w*8:], as.ReadU64(tree+mem.VAddr(w*8)))
		}
	}
	m.Clock.Advance(time.Duration(len(buf)) * m.Model.MarshalPerByte)
	m.Disk.WriteFile(ckptFile, buf)
	tr.stats.Checkpoints++
}

// loadCheckpoint restores the model and replays it over the workspace, then
// positions the iteration counter so lost iterations are recomputed.
func (tr *Trainer) loadCheckpoint(h *heap.Heap) {
	m := tr.rt.Proc().Machine
	buf, ok := m.Disk.ReadFile(ckptFile)
	if !ok || len(buf) < 8 {
		return
	}
	as := tr.rt.Proc().AS
	nt := binary.LittleEndian.Uint64(buf)
	if len(buf) < 8+int(nt)*treeSize {
		panic(&kernel.Crash{Sig: kernel.SIGABRT, Reason: "boost: corrupt checkpoint"})
	}
	m.Clock.Advance(time.Duration(len(buf)) * m.Model.UnmarshalPerByte)
	n := int(as.ReadU64(tr.hdr + offN))
	f := int(as.ReadU64(tr.hdr + offF))
	X := as.ReadPtr(tr.hdr + offX)
	preds := as.ReadPtr(tr.hdr + offPreds)
	trees := as.ReadPtr(tr.hdr + offTrees)
	for i := uint64(0); i < nt; i++ {
		tree := h.Alloc(treeSize)
		if tree == mem.NullPtr {
			panic(&kernel.Crash{Sig: kernel.SIGABRT, Reason: "boost: out of memory loading checkpoint"})
		}
		for w := 0; w < 4; w++ {
			as.WriteU64(tree+mem.VAddr(w*8), binary.LittleEndian.Uint64(buf[8+int(i)*treeSize+w*8:]))
		}
		as.WritePtr(trees+mem.VAddr(i*8), tree)
	}
	as.WriteU64(tr.hdr+offNTrees, nt)
	// Rebuild predictions by applying trees 0..nt-2 (the predict stage of
	// iteration nt will fold in tree nt-1).
	for i := uint64(0); i+1 < nt; i++ {
		tree := as.ReadPtr(trees + mem.VAddr(i*8))
		feat := int(as.ReadU64(tree))
		thr := math.Float64frombits(as.ReadU64(tree + 8))
		left := math.Float64frombits(as.ReadU64(tree + 16))
		right := math.Float64frombits(as.ReadU64(tree + 24))
		for s := 0; s < n; s++ {
			x := tr.f64(X + mem.VAddr((s*f+feat)*8))
			d := left
			if x >= thr {
				d = right
			}
			tr.setF64(preds+mem.VAddr(s*8), tr.f64(preds+mem.VAddr(s*8))+tr.cfg.LearningRate*d)
		}
	}
	// The next predict stage expects to fold tree nt-1; align the tracker.
	as.WriteU64(tr.hdr+offTracker, nt)
	as.WriteU64(tr.hdr+offTracker+8, 0)
	tr.charge(n * int(nt))
	tr.stats.CkptLoads++
}

// PlanRestart implements recovery.App: compute apps rely on stage-based
// progress recovery rather than unsafe regions (§3.7); the whole heap —
// workspace, model, tracker — is preserved.
func (tr *Trainer) PlanRestart(rt *core.Runtime, ci *kernel.CrashInfo, useUnsafe bool) (core.RestartPlan, string) {
	return core.RestartPlan{InfoAddr: tr.hdr, WithHeap: true}, ""
}

// Reattach implements recovery.App (CRIU restore).
func (tr *Trainer) Reattach(rt *core.Runtime) {
	tr.rt = rt
	h, err := heap.Attach(rt.Proc().AS, core.DefaultHeapBase, heap.Options{Name: "boost"})
	if err != nil {
		panic(&kernel.Crash{Sig: kernel.SIGABRT, Reason: "boost: criu reattach: " + err.Error()})
	}
	tr.heap = h
	tr.stages = rt.NewStages(tr.hdr + offTracker)
}

// Dump implements recovery.App: the committed model.
func (tr *Trainer) Dump() core.StateDump {
	out := core.StateDump{}
	as := tr.rt.Proc().AS
	nt := tr.CompletedIters()
	trees := as.ReadPtr(tr.hdr + offTrees)
	out["ntrees"] = fmt.Sprint(nt)
	for i := uint64(0); i < nt; i++ {
		tree := as.ReadPtr(trees + mem.VAddr(i*8))
		out[fmt.Sprintf("tree-%04d", i)] = fmt.Sprintf("%d %x %x %x",
			as.ReadU64(tree), as.ReadU64(tree+8), as.ReadU64(tree+16), as.ReadU64(tree+24))
	}
	return out
}

// CrossCheck implements recovery.App: not wired for the compute apps
// (Table 4 lists cross-check only for Redis and LevelDB).
func (tr *Trainer) CrossCheck(rt *core.Runtime) (core.CrossCheckSpec, bool) {
	return core.CrossCheckSpec{}, false
}

// --- real-bug scenario (Table 5, X1) ---

// ArmBug schedules a bug: X1 is the XGBoost memory-leak issue (#3579) —
// per-iteration buffers are never released until allocation fails.
func (tr *Trainer) ArmBug(name string) { tr.armedBug = name }

func (tr *Trainer) fireBug(name string) {
	switch name {
	case "X1":
		for i := 0; i < 8; i++ {
			if tr.heap.Alloc(1<<20) == mem.NullPtr {
				break
			}
		}
		panic(&kernel.Crash{Sig: kernel.SIGABRT, Reason: "boost: host memory exhausted (leaked DMatrix buffers)"})
	default:
		panic(fmt.Sprintf("boost: unknown bug %q", name))
	}
}

// Stages exposes the tracker (tests).
func (tr *Trainer) Stages() *core.Stages { return tr.stages }

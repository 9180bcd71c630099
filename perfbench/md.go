package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"gonamd"
)

// The md-* workloads run the real parallel engine on a ~24k-atom water
// box (62 Å side at water density) with the production 9 Å cutoff. The
// seed picks the box's random packing and initial velocities.
const (
	mdSide      = 62.0
	mdCutoff    = 9.0
	mdDt        = 0.5 // fs
	mdMinimize  = 10  // steepest-descent iterations in set-up
	mdWarmSteps = 10  // untimed steps before measuring
	mdSetups    = 3   // set-up repetitions; setup_s is their median
	mdMinSteps  = 20  // measured steps even when the budget runs out first

	// Health bounds checked on every measured step. The box is only
	// briefly minimized, so it releases strain heat that the thermostat
	// removes; a step outside these bounds is a failed operation.
	mdTempMin = 50.0
	mdTempMax = 1500.0
)

// mdConfig is one md-* workload.
type mdConfig struct {
	pme bool
	// oneWorkerShare is the share of the budget given to a single-worker
	// phase on the same state (0 = none); the rest runs at nproc workers.
	oneWorkerShare float64
	// forceTol and energyTol bound the final check against the reference
	// path, relative to the largest reference force and to the reference
	// potential energy.
	forceTol, energyTol float64
}

// md-cutoff: fp64 analytic cluster kernels with shifted electrostatics,
// checked against the sequential cell-walk engine; the two paths differ
// only in summation order.
func runMDCutoff(cfg runConfig, rep *report) error {
	return mdConfig{oneWorkerShare: 0.3, forceTol: 1e-9, energyTol: 1e-10}.run(cfg, rep)
}

// md-pme: smooth PME (1 Å mesh, impulse MTS period 4) with the tabulated
// Ewald cluster kernels, checked against the sequential PME engine with
// analytic kernels; the table's own error (DESIGN.md "Tabulated kernels",
// ~1e-5 of the force scale per atom) sets the tolerance.
func runMDPME(cfg runConfig, rep *report) error {
	return mdConfig{pme: true, forceTol: 1e-4, energyTol: 1e-5}.run(cfg, rep)
}

func (m mdConfig) options() []gonamd.Option {
	opts := []gonamd.Option{
		gonamd.WithClusterLists(4, 4),
		gonamd.WithThermostat(&gonamd.Berendsen{Target: 300, Tau: 10}),
	}
	if m.pme {
		opts = append(opts, gonamd.WithPME(1.0, 0, 4), gonamd.WithTabulatedKernels(0))
	}
	return opts
}

// mdSetup is one built, minimized system with its engine constructed and
// its first force evaluation done.
type mdSetup struct {
	sys *gonamd.System
	ff  *gonamd.ForceField
	eng *gonamd.Parallel

	build, minimize, total time.Duration
}

func (m mdConfig) setup(seed uint64, workers int) (*mdSetup, error) {
	s := &mdSetup{}
	t0 := time.Now()
	sys, st, err := gonamd.BuildSystem(gonamd.WaterBoxSpec(mdSide, seed))
	if err != nil {
		return nil, err
	}
	s.build = time.Since(t0)
	ff := gonamd.StandardForceField(mdCutoff)
	t1 := time.Now()
	mz, err := gonamd.NewSequential(sys, ff, st, gonamd.WithClusterLists(4, 4))
	if err != nil {
		return nil, err
	}
	mz.Minimize(mdMinimize, 0.2)
	s.minimize = time.Since(t1)
	eng, err := gonamd.NewParallel(sys, ff, st, workers, m.options()...)
	if err != nil {
		return nil, err
	}
	eng.ComputeForces()
	if m.pme {
		eng.RecipForces()
	}
	s.total = time.Since(t0)
	s.sys, s.ff, s.eng = sys, ff, eng
	return s, nil
}

// stepPhase is one measured stretch of steps.
type stepPhase struct {
	stepMs   []float64
	wall     time.Duration
	rebuilds int
	allocs   uint64
	bytes    uint64
}

func (p *stepPhase) stepsPerSec() float64 { return float64(len(p.stepMs)) / p.wall.Seconds() }

// nsPerDay converts the phase's step rate to simulated ns per day.
func (p *stepPhase) nsPerDay() float64 { return p.stepsPerSec() * mdDt * 1e-6 * 86400 }

// runSteps steps eng until budget has passed (and at least mdMinSteps
// steps ran), timing each Step call and checking energies and
// temperature after it. Allocations are counted over the whole phase at
// the process's real GOMAXPROCS.
func runSteps(eng *gonamd.Parallel, budget time.Duration, rep *report) *stepPhase {
	p := &stepPhase{stepMs: make([]float64, 0, 1<<14)}
	rebuilds := eng.ClusterRebuilds()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for len(p.stepMs) < cap(p.stepMs) && (len(p.stepMs) < mdMinSteps || time.Since(start) < budget) {
		t := time.Now()
		eng.Step(mdDt)
		p.stepMs = append(p.stepMs, ms(time.Since(t)))
		en := eng.Energies()
		temp := eng.Temperature()
		rep.check(isFinite(en.Total()) && temp > mdTempMin && temp < mdTempMax, "md step health")
	}
	p.wall = time.Since(start)
	runtime.ReadMemStats(&after)
	p.rebuilds = eng.ClusterRebuilds() - rebuilds
	p.allocs = after.Mallocs - before.Mallocs
	p.bytes = after.TotalAlloc - before.TotalAlloc
	return p
}

func isFinite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

func (m mdConfig) run(cfg runConfig, rep *report) error {
	var s *mdSetup
	var total, build, minimize []float64
	for i := 0; i < mdSetups; i++ {
		var err error
		if s, err = m.setup(cfg.seed, cfg.nproc); err != nil {
			return err
		}
		total = append(total, s.total.Seconds())
		build = append(build, s.build.Seconds())
		minimize = append(minimize, s.minimize.Seconds())
	}
	rep.set("setup_s", median(total))
	rep.set("molgen.build_s", median(build))
	rep.set("seq.minimize_s", median(minimize))

	eng := s.eng
	for i := 0; i < mdWarmSteps; i++ {
		eng.Step(mdDt)
	}
	full := runSteps(eng, cfg.budget(1-m.oneWorkerShare), rep)
	n := float64(len(full.stepMs))
	rep.set("latency_ms_p50", median(full.stepMs))
	rep.set("throughput_per_s", full.stepsPerSec())
	rep.set("ns_per_day", full.nsPerDay())
	rep.set("step_ms_p50", median(full.stepMs))
	rep.set("step_ms_p90", percentile(full.stepMs, 0.9))
	rep.set("latency_samples", n)
	rep.set("par.allocs_per_step", float64(full.allocs)/n)
	rep.set("par.bytes_per_step", float64(full.bytes)/n)
	if full.rebuilds > 0 {
		rep.set("spatial.rebuild_every_steps", n/float64(full.rebuilds))
	} else {
		rep.set("spatial.rebuild_every_steps", n) // lower bound: no rebuild in the phase
	}

	if m.oneWorkerShare > 0 {
		one, err := gonamd.NewParallel(s.sys, s.ff, eng.State().Clone(), 1, m.options()...)
		if err != nil {
			return err
		}
		one.Step(mdDt) // builds its lists
		p := runSteps(one, cfg.budget(m.oneWorkerShare), rep)
		rep.set("ns_per_day_1w", p.nsPerDay())
		rep.set("par.efficiency", full.nsPerDay()/(float64(cfg.nproc)*p.nsPerDay()))
	}

	if cfg.trace {
		if err := m.probeLayers(s, cfg, rep, median(full.stepMs)); err != nil {
			return err
		}
	}
	return m.referenceCheck(s, rep)
}

// referenceCheck evaluates forces and energy on the final coordinates
// with the engine under test and with the sequential reference path
// (cell walk, analytic kernels; PME through the sequential solver), and
// compares them within the workload's stated tolerance.
func (m mdConfig) referenceCheck(s *mdSetup, rep *report) error {
	eng := s.eng
	st := eng.State().Clone()
	eng.Invalidate()
	eng.ComputeForces()
	got := append([]gonamd.V3(nil), eng.Forces()...)
	var gotSlow []gonamd.V3
	if m.pme {
		gotSlow = append(gotSlow, eng.RecipForces()...)
	}
	gotPot := eng.Energies().Potential()

	var opts []gonamd.Option
	if m.pme {
		opts = append(opts, gonamd.WithPME(1.0, 0, 4))
	}
	ref, err := gonamd.NewSequential(s.sys, s.ff, st, opts...)
	if err != nil {
		return err
	}
	ref.ComputeForces()
	refPot := ref.Energies().Potential()
	ferr := maxForceError(got, ref.Forces())
	if m.pme {
		ferr = math.Max(ferr, maxForceError(gotSlow, ref.RecipForces()))
	}
	eerr := math.Abs(gotPot-refPot) / math.Abs(refPot)
	fmt.Printf("# reference check: max force error %.3g (tol %g), energy error %.3g (tol %g)\n", ferr, m.forceTol, eerr, m.energyTol)
	rep.check(ferr <= m.forceTol, fmt.Sprintf("forces vs reference: %.3g > %g", ferr, m.forceTol))
	rep.check(eerr <= m.energyTol, fmt.Sprintf("energy vs reference: %.3g > %g", eerr, m.energyTol))
	return nil
}

// maxForceError is max_i |got_i − ref_i| over max_i |ref_i|.
func maxForceError(got, ref []gonamd.V3) float64 {
	if len(got) != len(ref) {
		return math.Inf(1)
	}
	var maxDiff, maxRef float64
	for i := range ref {
		maxDiff = math.Max(maxDiff, got[i].Sub(ref[i]).Norm())
		maxRef = math.Max(maxRef, ref[i].Norm())
	}
	return maxDiff / maxRef
}

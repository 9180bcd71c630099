package gonamd

import (
	"fmt"
	"time"

	"gonamd/internal/ftdc"
	"gonamd/internal/ldb"
	"gonamd/internal/par"
	"gonamd/internal/seq"
	"gonamd/internal/thermo"
	"gonamd/internal/trace"
)

// Engine is the interface both real engines satisfy: construct one with
// NewSequential or NewParallel and drive it without caring which. The
// cluster simulation (NewClusterSim) models machines rather than
// advancing real atoms and stays outside this interface.
type Engine interface {
	// Step advances one velocity-Verlet step of dt femtoseconds.
	Step(dt float64)
	// Run advances n steps and returns the final energies.
	Run(n int, dt float64) Energies
	// ComputeForces evaluates forces at the current positions.
	ComputeForces() Energies
	// Energies returns the last evaluation's energies plus current kinetic.
	Energies() Energies
	// Forces returns the engine-owned force array from the last evaluation.
	Forces() []V3
	// Invalidate marks cached forces stale after external position edits.
	Invalidate()
	// Kinetic returns the kinetic energy in kcal/mol.
	Kinetic() float64
	// Temperature returns the instantaneous temperature in K.
	Temperature() float64
	// System returns the engine's topology.
	System() *System
	// State returns the engine's mutable positions and velocities.
	State() *State
}

var (
	_ Engine = (*Sequential)(nil)
	_ Engine = (*Parallel)(nil)
)

// engineKind discriminates which constructor is applying the options, so
// engine-specific options can reject the wrong engine by name.
type engineKind uint8

const (
	kindSequential engineKind = iota
	kindParallel
)

func (k engineKind) String() string {
	if k == kindSequential {
		return "sequential"
	}
	return "parallel"
}

// engineOptions accumulates the configuration the options record. All
// validation that spans options (or needs the force field) happens after
// every option has run, so option order never matters.
type engineOptions struct {
	kind engineKind

	clusterM, clusterN int     // cluster pair lists, 0 = off
	clusterSkin        float64 // cluster list skin override (Å), 0 = default
	tabulated          bool    // r²-indexed tabulated cluster kernels
	tableSpacing       float64 // table grid spacing (Å²), 0 = default

	pmeSet  bool
	pmeGrid float64
	pmeBeta float64 // 0 = auto (3.12/cutoff, erfc(3.12) ≈ 1e-5 at the cutoff)
	pmeMTS  int

	trace      *trace.Log
	metrics    *ftdc.Recorder
	thermostat thermo.Thermostat

	rebalanceEvery    int
	rebalanceEverySet bool

	lb ldb.Strategy // par: task-to-worker balancing strategy, nil = default

	hbond bool
}

// Option configures an engine at construction time. Options are applied
// by NewSequential and NewParallel in a fixed internal order, so the
// order they are passed in never changes the result. Engine-specific
// options (WithRebalanceEvery, WithHBondConstraints, ...) return a
// construction error when handed to the other engine.
type Option func(*engineOptions) error

// WithClusterLists switches the engine's nonbonded path to M×N cluster
// pair lists (GROMACS-style): atoms pack into spatial clusters of M
// (i-side) and N (j-side) consecutive slots, the Verlet list pairs
// clusters instead of atoms with a per-pair interaction bitmask, and the
// kernel evaluates each M×N tile with the pair invariants hoisted.
// Works on both engines; the parallel engine decomposes the list by
// spatial cell and keeps its deterministic reduction, so cluster runs
// stay bitwise reproducible for a fixed worker count and mode. M and N
// must be in [1, 8] with M·N ≤ 64 (typical: 4×4 or 4×8). The list uses
// the default skin (see WithClusterSkin) and is rebuilt once some atom
// has drifted more than skin/2 since the build. Without this option the
// engines walk cell pairs through the batched pair kernel every step.
func WithClusterLists(m, n int) Option {
	return func(o *engineOptions) error {
		if m < 1 || m > 8 || n < 1 || n > 8 || m*n > 64 {
			return fmt.Errorf("gonamd: cluster geometry %dx%d out of range (M, N in [1, 8], M·N ≤ 64)", m, n)
		}
		o.clusterM, o.clusterN = m, n
		return nil
	}
}

// WithClusterSkin overrides the Verlet skin (Å) of the cluster pair
// lists enabled by WithClusterLists. The skin trades list size against
// rebuild frequency: every listed cluster pair within cutoff+skin is
// re-evaluated each step, while the drift guard only rebuilds once an
// atom has moved skin/2 from the list's reference positions — so a
// smaller skin shrinks the per-step kernel work linearly in
// (1+skin/cutoff)³ at the price of more frequent rebuilds. Correctness
// never depends on the value: any positive skin obeys the same drift
// rule. The default is 1.5 Å; tighter skins (0.5–0.75 Å) are usually a
// net win for large boxes where the rebuild amortizes over hundreds of
// steps. Requires WithClusterLists.
func WithClusterSkin(skin float64) Option {
	return func(o *engineOptions) error {
		if !(skin > 0) || skin > 1e6 {
			return fmt.Errorf("gonamd: cluster skin %g out of range (want 0 < skin)", skin)
		}
		o.clusterSkin = skin
		return nil
	}
}

// WithTabulatedKernels switches the cluster kernels to r²-indexed
// force/energy interaction tables: the combined Lennard-Jones +
// electrostatics interaction (including the Ewald real-space term when
// PME is on, and the vdW switching function) is precomputed once at
// construction as quadratic splines of E and dE/d(r²) on a uniform r²
// grid, and the pair loop becomes lookup + FMA — no Sqrt, no Erfc/Exp,
// no switching branch. spacing is the grid spacing in Å² (0 selects the
// default resolution, cutoff²/DefaultTableBins — see DESIGN.md
// "Tabulated kernels" for the accuracy-vs-spacing table). Requires
// WithClusterLists; composes with WithPME (the table is built after the
// Ewald swap). Tabulated trajectories are bitwise reproducible for a
// fixed configuration but numerically distinct from analytic ones, so
// checkpoints record the mode and services refuse to resume across a
// change.
func WithTabulatedKernels(spacing float64) Option {
	return func(o *engineOptions) error {
		if spacing < 0 || spacing != spacing {
			return fmt.Errorf("gonamd: table spacing %g Å² must be ≥ 0 (0 = default resolution)", spacing)
		}
		o.tabulated = true
		o.tableSpacing = spacing
		return nil
	}
}

// WithPME enables smooth particle-mesh Ewald full electrostatics: erfc
// real space inside the cutoff plus a reciprocal mesh sum on a grid of
// at most gridSpacing Å per point, evaluated once every mtsPeriod steps
// as an impulse (1 = every step). beta is the Ewald splitting parameter
// in Å⁻¹; pass 0 to choose it from the cutoff (3.12/cutoff, which makes
// the real-space term negligible at the cutoff).
func WithPME(gridSpacing, beta float64, mtsPeriod int) Option {
	return func(o *engineOptions) error {
		if gridSpacing <= 0 {
			return fmt.Errorf("gonamd: PME grid spacing %g Å must be positive", gridSpacing)
		}
		if beta < 0 {
			return fmt.Errorf("gonamd: PME beta %g Å⁻¹ must be ≥ 0 (0 = auto)", beta)
		}
		if mtsPeriod < 1 {
			return fmt.Errorf("gonamd: PME MTS period %d must be ≥ 1", mtsPeriod)
		}
		o.pmeSet = true
		o.pmeGrid = gridSpacing
		o.pmeBeta = beta
		o.pmeMTS = mtsPeriod
		return nil
	}
}

// WithTrace attaches a Projections-style trace log: every step then
// emits per-phase execution records and a step marker, analyzable with
// AnalyzeTrace or cmd/projections. The instrumentation adds no heap
// allocations to the steady-state step.
func WithTrace(l *TraceLog) Option {
	return func(o *engineOptions) error {
		o.trace = l
		return nil
	}
}

// WithMetrics attaches always-on FTDC telemetry sampled on the given
// interval: the engine publishes its metric vector (step count,
// per-phase busy seconds, rebuild count, load imbalance) into a
// lock-free slot array after every step, and a background sampler
// goroutine snapshots it into a ring buffer every interval. The step
// path stays allocation-free; the sampler costs O(fields) per tick.
// Retrieve the recorder with Sequential.Metrics / Parallel.Metrics to
// subscribe, read history, or attach an on-disk sink. An interval of 0
// disables the background sampler (call Recorder.SampleNow manually);
// negative intervals are rejected. Composes with WithTrace: with a
// trace attached the phase times feed both; without one a bounded
// timing-only accumulator is installed.
func WithMetrics(interval time.Duration) Option {
	return func(o *engineOptions) error {
		if interval < 0 {
			return fmt.Errorf("gonamd: metrics interval %s must be ≥ 0 (0 = manual sampling)", interval)
		}
		o.metrics = ftdc.NewEngineRecorder(interval)
		return nil
	}
}

// WithMetricsRecorder attaches a caller-constructed telemetry recorder
// (see NewMetricsRecorder) — the variant services use so they keep the
// handle for sampling, streaming, and shutdown. Nil is rejected.
func WithMetricsRecorder(rec *MetricsRecorder) Option {
	return func(o *engineOptions) error {
		if rec == nil {
			return fmt.Errorf("gonamd: WithMetricsRecorder requires a non-nil recorder (use WithMetrics to construct one)")
		}
		o.metrics = rec
		return nil
	}
}

// WithThermostat applies the thermostat after every step (NVT dynamics).
func WithThermostat(th Thermostat) Option {
	return func(o *engineOptions) error {
		o.thermostat = th
		return nil
	}
}

// WithRebalanceEvery sets how many steps run between the parallel
// engine's measurement-based load-balancing passes (0 disables automatic
// rebalancing; call Rebalance manually). Parallel engine only.
func WithRebalanceEvery(steps int) Option {
	return func(o *engineOptions) error {
		if o.kind != kindParallel {
			return fmt.Errorf("gonamd: WithRebalanceEvery applies only to the parallel engine")
		}
		if steps < 0 {
			return fmt.Errorf("gonamd: rebalance interval %d must be ≥ 0", steps)
		}
		o.rebalanceEvery = steps
		o.rebalanceEverySet = true
		return nil
	}
}

// WithLoadBalancer selects the parallel engine's load-balancing
// strategy by registry name (see LBStrategyNames: "greedy+refine",
// "refine-only", "hierarchical", "diffusion", "none"). The strategy
// decides how nonbonded tasks are reassigned to workers on each
// measurement-based rebalancing pass (see WithRebalanceEvery). An
// unknown name fails construction with an *UnknownLBStrategyError
// listing the valid names. Parallel engine only.
func WithLoadBalancer(name string) Option {
	return func(o *engineOptions) error {
		if o.kind != kindParallel {
			return fmt.Errorf("gonamd: WithLoadBalancer applies only to the parallel engine")
		}
		s, err := ldb.Lookup(name)
		if err != nil {
			return err
		}
		o.lb = s
		return nil
	}
}

// WithHBondConstraints builds SHAKE/RATTLE constraints for every bond
// involving hydrogen, fixed at the force-field equilibrium length, and
// attaches them to the engine (retrieve with Sequential.Constraints and
// drive with StepConstrained). Sequential engine only, and incompatible
// with WithPME: both reshape the timestep structure, and the impulse-MTS
// PME step has no constraint projection.
func WithHBondConstraints() Option {
	return func(o *engineOptions) error {
		if o.kind != kindSequential {
			return fmt.Errorf("gonamd: WithHBondConstraints applies only to the sequential engine")
		}
		o.hbond = true
		return nil
	}
}

// validate enforces the cross-option constraints once all options ran.
func (o *engineOptions) validate() error {
	if o.hbond && o.pmeSet {
		return fmt.Errorf("gonamd: WithHBondConstraints and WithPME cannot be combined: the impulse-MTS PME step has no SHAKE/RATTLE projection")
	}
	if o.clusterM == 0 {
		if o.clusterSkin > 0 {
			return fmt.Errorf("gonamd: WithClusterSkin requires WithClusterLists: the skin belongs to the cluster pair list")
		}
		if o.tabulated {
			return fmt.Errorf("gonamd: WithTabulatedKernels requires WithClusterLists: the tabulated kernels only exist in cluster form")
		}
	}
	return nil
}

// NewSequential creates the single-threaded reference engine, configured
// by the options (WithClusterLists, WithPME, WithTrace, WithThermostat,
// WithHBondConstraints).
func NewSequential(sys *System, ff *ForceField, st *State, opts ...Option) (*Sequential, error) {
	o := engineOptions{kind: kindSequential}
	for _, opt := range opts {
		if err := opt(&o); err != nil {
			return nil, err
		}
	}
	if err := o.validate(); err != nil {
		return nil, err
	}
	e, err := seq.New(sys, ff, st)
	if err != nil {
		return nil, err
	}
	if o.thermostat != nil {
		e.Thermo = o.thermostat
	}
	if o.clusterM > 0 {
		if err := e.EnableClusterLists(o.clusterM, o.clusterN, o.clusterSkin); err != nil {
			return nil, err
		}
	}
	if o.pmeSet {
		if err := seq.EnableFullElectrostatics(e, o.pmeGrid, o.betaOrAuto(ff), o.pmeMTS); err != nil {
			return nil, err
		}
	}
	// After any Ewald swap: the table folds the active electrostatics.
	if o.tabulated {
		if err := e.EnableTabulatedKernels(o.tableSpacing); err != nil {
			return nil, err
		}
	}
	if o.hbond {
		c, err := NewHBondConstraints(sys, ff)
		if err != nil {
			return nil, err
		}
		e.SetConstraints(c)
	}
	if o.trace != nil {
		e.SetTrace(o.trace)
	}
	if o.metrics != nil {
		e.SetMetrics(o.metrics)
	}
	return e, nil
}

// NewParallel creates the shared-memory parallel engine with the given
// number of goroutine workers (0 = GOMAXPROCS), configured by the
// options (WithClusterLists, WithPME, WithTrace, WithThermostat,
// WithRebalanceEvery).
func NewParallel(sys *System, ff *ForceField, st *State, workers int, opts ...Option) (*Parallel, error) {
	o := engineOptions{kind: kindParallel}
	for _, opt := range opts {
		if err := opt(&o); err != nil {
			return nil, err
		}
	}
	if err := o.validate(); err != nil {
		return nil, err
	}
	e, err := par.New(sys, ff, st, workers)
	if err != nil {
		return nil, err
	}
	if o.thermostat != nil {
		e.Thermo = o.thermostat
	}
	if o.rebalanceEverySet {
		e.RebalanceEvery = o.rebalanceEvery
	}
	if o.lb != nil {
		e.LB = o.lb
	}
	if o.clusterM > 0 {
		if err := e.EnableClusterLists(o.clusterM, o.clusterN, o.clusterSkin); err != nil {
			return nil, err
		}
	}
	if o.pmeSet {
		if err := par.EnableFullElectrostatics(e, o.pmeGrid, o.betaOrAuto(ff), o.pmeMTS); err != nil {
			return nil, err
		}
	}
	// After any Ewald swap: the table folds the active electrostatics.
	if o.tabulated {
		if err := e.EnableTabulatedKernels(o.tableSpacing); err != nil {
			return nil, err
		}
	}
	if o.trace != nil {
		e.SetTrace(o.trace)
	}
	if o.metrics != nil {
		e.SetMetrics(o.metrics)
	}
	return e, nil
}

// betaOrAuto resolves the Ewald splitting parameter: an explicit value
// passes through; 0 derives it from the cutoff so that the real-space
// term is negligible (erfc(3.12) ≈ 1e-5) at the cutoff.
func (o *engineOptions) betaOrAuto(ff *ForceField) float64 {
	if o.pmeBeta > 0 {
		return o.pmeBeta
	}
	return 3.12 / ff.Cutoff
}

// EngineSpec is the wire form of an engine configuration: a
// JSON-serializable description that maps 1:1 onto the functional
// options, so services (the gonamdd job server) can accept engine
// configuration over the network, validate it with the same rules the
// options enforce, and construct the engine with NewEngine. The zero
// value describes a plain sequential NVE engine.
type EngineSpec struct {
	// Engine selects the engine: "sequential"/"seq" (default) or
	// "parallel"/"par".
	Engine string `json:"engine,omitempty"`
	// Workers is the parallel engine's goroutine count (0 = all cores).
	Workers int `json:"workers,omitempty"`
	// ClusterM/ClusterN enable M×N cluster pair lists (0 = off); see
	// WithClusterLists for the geometry constraints.
	ClusterM int `json:"cluster_m,omitempty"`
	ClusterN int `json:"cluster_n,omitempty"`
	// ClusterSkin overrides the cluster-list Verlet skin (Å, 0 = default
	// 1.5); see WithClusterSkin for the size/rebuild trade-off.
	ClusterSkin float64 `json:"cluster_skin,omitempty"`
	// Tabulated switches the cluster kernels to r²-indexed interaction
	// tables (see WithTabulatedKernels); requires cluster lists. It
	// changes the numerical trajectory (see DESIGN.md), so the precision
	// mode records it and services refuse to resume a checkpoint across
	// a tabulation change.
	Tabulated bool `json:"tabulated,omitempty"`
	// TableSpacing overrides the table grid spacing (Å², 0 = default
	// resolution); only meaningful with Tabulated.
	TableSpacing float64 `json:"table_spacing,omitempty"`
	// PME enables smooth particle-mesh Ewald full electrostatics.
	PME *PMESpec `json:"pme,omitempty"`
	// RebalanceEvery, when non-nil, overrides the parallel engine's
	// load-balancing interval (0 disables rebalancing; nil keeps the
	// engine default). Measurement-based rebalancing changes the
	// task-to-worker assignment from wall-clock timings, so services
	// that promise bit-identical crash resume pin this to 0.
	RebalanceEvery *int `json:"rebalance_every,omitempty"`
	// LBStrategy names the parallel engine's load-balancing strategy
	// (see LBStrategyNames; "" keeps the engine default,
	// "greedy+refine"). Unknown names are rejected with an error listing
	// the valid ones — services validate this at admission time.
	LBStrategy string `json:"lb_strategy,omitempty"`
	// Thermostat, when non-nil, selects NVT dynamics.
	Thermostat *ThermostatSpec `json:"thermostat,omitempty"`
	// HBondConstraints enables SHAKE/RATTLE on bonds to hydrogen
	// (sequential engine only, incompatible with PME).
	HBondConstraints bool `json:"hbond_constraints,omitempty"`
}

// PMESpec is the wire form of WithPME.
type PMESpec struct {
	GridSpacing float64 `json:"grid_spacing"`         // Å per mesh point, ≤
	Beta        float64 `json:"beta,omitempty"`       // Å⁻¹, 0 = auto from cutoff
	MTSPeriod   int     `json:"mts_period,omitempty"` // impulse-MTS period, 0 = 1
}

// ThermostatSpec is the wire form of WithThermostat.
type ThermostatSpec struct {
	Kind        string  `json:"kind"`               // "rescale", "berendsen", "langevin"
	Temperature float64 `json:"temperature"`        // target, K
	Interval    int     `json:"interval,omitempty"` // rescale: steps between rescales (default 10)
	Tau         float64 `json:"tau,omitempty"`      // berendsen: coupling constant, fs (default 100)
	Gamma       float64 `json:"gamma,omitempty"`    // langevin: friction, 1/fs (default 0.005)
	Seed        uint64  `json:"seed,omitempty"`     // langevin: noise stream seed
}

// New constructs the thermostat the spec describes.
func (t *ThermostatSpec) New() (Thermostat, error) {
	if !(t.Temperature > 0) {
		return nil, fmt.Errorf("gonamd: thermostat temperature %g K must be positive", t.Temperature)
	}
	switch t.Kind {
	case "rescale":
		iv := t.Interval
		if iv == 0 {
			iv = 10
		}
		return &Rescale{Target: t.Temperature, Interval: iv}, nil
	case "berendsen":
		tau := t.Tau
		if tau == 0 {
			tau = 100
		}
		return &Berendsen{Target: t.Temperature, Tau: tau}, nil
	case "langevin":
		gamma := t.Gamma
		if gamma == 0 {
			gamma = 0.005
		}
		return &Langevin{Target: t.Temperature, Gamma: gamma, Seed: t.Seed}, nil
	default:
		return nil, fmt.Errorf("gonamd: unknown thermostat kind %q (want rescale, berendsen, or langevin)", t.Kind)
	}
}

// PrecisionMode names the numerical mode the spec's trajectory runs in:
// "fp64" for the analytic float64 interaction, "fp64-tab" when the
// tabulated kernels replace it. Trajectories are bitwise reproducible
// within a mode but differ across modes, so checkpoints record this and
// services refuse to resume across a mode change.
func (s *EngineSpec) PrecisionMode() string {
	if s.Tabulated {
		return "fp64-tab"
	}
	return "fp64"
}

// UsesLists reports whether the spec enables cluster pair lists.
// List-mode engines carry list history — forces depend on where the
// current list was built, not just on the current positions — so
// services that promise bit-identical crash resume rebase such engines
// on every checkpoint (Invalidate + ResetLists; see the job server).
func (s *EngineSpec) UsesLists() bool {
	return s.ClusterM > 0
}

// Parallel reports whether the spec selects the parallel engine.
func (s *EngineSpec) Parallel() (bool, error) {
	switch s.Engine {
	case "", "seq", "sequential":
		return false, nil
	case "par", "parallel":
		return true, nil
	default:
		return false, fmt.Errorf("gonamd: unknown engine %q (want sequential or parallel)", s.Engine)
	}
}

// options lowers the spec to functional options, with th (possibly nil)
// as the already-constructed thermostat.
func (s *EngineSpec) options(th Thermostat) []Option {
	var opts []Option
	if th != nil {
		opts = append(opts, WithThermostat(th))
	}
	if s.PME != nil {
		mts := s.PME.MTSPeriod
		if mts == 0 {
			mts = 1
		}
		opts = append(opts, WithPME(s.PME.GridSpacing, s.PME.Beta, mts))
	}
	if s.ClusterM > 0 || s.ClusterN > 0 {
		opts = append(opts, WithClusterLists(s.ClusterM, s.ClusterN))
	}
	if s.ClusterSkin > 0 {
		opts = append(opts, WithClusterSkin(s.ClusterSkin))
	}
	if s.Tabulated {
		opts = append(opts, WithTabulatedKernels(s.TableSpacing))
	}
	if s.RebalanceEvery != nil {
		opts = append(opts, WithRebalanceEvery(*s.RebalanceEvery))
	}
	if s.LBStrategy != "" {
		opts = append(opts, WithLoadBalancer(s.LBStrategy))
	}
	if s.HBondConstraints {
		opts = append(opts, WithHBondConstraints())
	}
	return opts
}

// NewEngine constructs the engine the spec describes over the given
// system, with every option validated by the same construction rules
// NewSequential and NewParallel enforce. The returned Thermostat is the
// instance the engine applies (nil for NVE) — exposed so callers that
// checkpoint, like the job server, can snapshot and restore a Langevin
// noise stream.
func (s *EngineSpec) NewEngine(sys *System, ff *ForceField, st *State) (Engine, Thermostat, error) {
	par, err := s.Parallel()
	if err != nil {
		return nil, nil, err
	}
	var th Thermostat
	if s.Thermostat != nil {
		if th, err = s.Thermostat.New(); err != nil {
			return nil, nil, err
		}
	}
	var eng Engine
	if par {
		eng, err = NewParallel(sys, ff, st, s.Workers, s.options(th)...)
	} else {
		eng, err = NewSequential(sys, ff, st, s.options(th)...)
	}
	if err != nil {
		return nil, nil, err
	}
	return eng, th, nil
}

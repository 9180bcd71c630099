package seq

import (
	"errors"
	"math"

	"gonamd/internal/forcefield"
	"gonamd/internal/spatial"
	"gonamd/internal/topology"
	"gonamd/internal/vec"
)

// DefaultClusterSkin is the Verlet skin (Å) used by cluster pair lists
// when enabled through the options API.
const DefaultClusterSkin = 1.5

// clusterState is the engine-side state of cluster-pair-list nonbonded
// evaluation: the builder (storage reused across rebuilds), the current
// list, slot-indexed kernel operands and force accumulators, and the
// skin/2 drift rule.
type clusterState struct {
	useRef  bool                         // evaluate via the scalar-replay reference kernel (tests)
	tab     *forcefield.InteractionTable // tabulated kernels when non-nil
	builder *spatial.ClusterBuilder
	list    *spatial.ClusterList
	data    forcefield.ClusterData
	exclFn  func(func(i, j int32, modified bool)) // bound once; rebuilds allocate nothing

	fxs, fys, fzs []float64 // slot-indexed force accumulators
	ics           []int32   // identity i-cluster order (seq evaluates all)

	// Atom-indexed kernel inputs, extracted once from the topology.
	types   []int32
	charges []float64

	guard spatial.DriftGuard // skin/2 drift rule; counts builds, scans, skips
}

// EnableClusterLists switches the engine's nonbonded evaluation to M×N
// cluster pair lists with the given skin (Å; ≤ 0 selects the default),
// rebuilt once some atom has drifted more than skin/2 since the build.
//
// Construct with gonamd.NewSequential(sys, ff, st,
// gonamd.WithClusterLists(m, n)) instead where possible; the option
// validates the geometry and delegates here.
func (e *Engine) EnableClusterLists(m, n int, skin float64) error {
	if skin <= 0 {
		skin = DefaultClusterSkin
	}
	b, err := spatial.NewClusterBuilder(e.Sys.Box, m, n, e.FF.Cutoff+skin)
	if err != nil {
		return err
	}
	cl := &clusterState{builder: b, exclFn: e.Sys.ForEachExcludedPair}
	cl.guard.Limit = skin / 2
	e.clusters = cl
	e.fresh = false
	return nil
}

// EnableTabulatedKernels switches cluster-mode nonbonded evaluation to
// the r²-indexed interaction table: the inner loop becomes lookup + FMA
// with no Sqrt/Erfc/Exp and no switching branch. spacing is the table
// grid spacing in Å² (0 selects the default resolution); the table is
// built once here from the engine's current force field, so this must
// run after any electrostatics change (EnableFullElectrostatics swaps
// the force field's Ewald splitting) — the constructors order it last.
// Requires cluster lists (the tabulated kernels only exist in cluster
// form).
//
// Construct with gonamd.NewSequential(sys, ff, st,
// gonamd.WithClusterLists(m, n), gonamd.WithTabulatedKernels(spacing))
// instead where possible.
func (e *Engine) EnableTabulatedKernels(spacing float64) error {
	if e.clusters == nil {
		return ErrTabNeedsClusters
	}
	tab, err := e.FF.BuildInteractionTable(spacing)
	if err != nil {
		return err
	}
	e.clusters.tab = tab
	e.fresh = false
	return nil
}

// ErrTabNeedsClusters rejects tabulated-kernel mode without cluster
// lists; shared with the parallel engine's EnableTabulatedKernels.
var ErrTabNeedsClusters = errors.New("gonamd: tabulated kernels require cluster lists (enable cluster lists first)")

// UseReferenceClusterKernel toggles evaluation through the scalar-replay
// reference kernel (forcefield.NonbondedClusterRef, or in table mode the
// pure-Go forcefield.NonbondedClusterTabRef) instead of the optimized
// one. Differential tests use it to prove the optimized kernel
// bitwise-identical through the full engine pipeline.
func (e *Engine) UseReferenceClusterKernel(on bool) {
	if e.clusters != nil {
		e.clusters.useRef = on
		e.fresh = false
	}
}

// ClusterRebuilds reports how many times the cluster list was (re)built.
func (e *Engine) ClusterRebuilds() int {
	if e.clusters == nil {
		return 0
	}
	return e.clusters.guard.Builds
}

// advanceGuard feeds one drift's maximum displacement bound (|v|max·dt)
// to the cluster list's drift guard.
func (e *Engine) advanceGuard(maxV2, dt float64) {
	if e.clusters != nil {
		e.clusters.guard.Advance(math.Sqrt(maxV2) * dt)
	}
}

// loadAtoms extracts the atom-indexed type and charge arrays the
// slot-table loads read from.
func (c *clusterState) loadAtoms(sys *topology.System) {
	n := sys.N()
	c.types = make([]int32, n)
	c.charges = make([]float64, n)
	for i := 0; i < n; i++ {
		c.types[i] = sys.Atoms[i].Type
		c.charges[i] = sys.Atoms[i].Charge
	}
}

// buildClusterList regenerates the cluster list and the slot-indexed
// static operands at the current positions.
func (e *Engine) buildClusterList() {
	c := e.clusters
	c.list = c.builder.Build(e.St.Pos, c.exclFn)
	if c.types == nil {
		c.loadAtoms(e.Sys)
	}
	c.data.LoadStatic(c.list, c.types, c.charges)
	numI := c.list.NumI()
	if cap(c.ics) < numI {
		c.ics = make([]int32, numI, numI+numI/8+8)
	} else {
		c.ics = c.ics[:numI]
	}
	for i := range c.ics {
		c.ics[i] = int32(i)
	}
	c.guard.Built(e.St.Pos)
}

// nonbondedFromClusters runs the cluster kernel over the whole list and
// scatters slot forces back to the atoms.
func (e *Engine) nonbondedFromClusters(en *Energies) {
	c := e.clusters
	l := c.list
	c.data.LoadPositions(l, e.St.Pos)
	ns := l.Slots()
	c.fxs = resizeF64(c.fxs, ns)
	c.fys = resizeF64(c.fys, ns)
	c.fzs = resizeF64(c.fzs, ns)
	for s := 0; s < ns; s++ {
		c.fxs[s], c.fys[s], c.fzs[s] = 0, 0, 0
	}
	var evdw, eelec, vir float64
	switch {
	case c.tab != nil && c.useRef:
		evdw, eelec, vir = e.FF.NonbondedClusterTabRef(c.tab, l, &c.data, c.ics, c.fxs, c.fys, c.fzs)
	case c.tab != nil:
		evdw, eelec, vir = e.FF.NonbondedClusterTab(c.tab, l, &c.data, c.ics, c.fxs, c.fys, c.fzs)
	case c.useRef:
		evdw, eelec, vir = e.FF.NonbondedClusterRef(l, &c.data, c.ics, c.fxs, c.fys, c.fzs)
	default:
		evdw, eelec, vir = e.FF.NonbondedCluster(l, &c.data, c.ics, c.fxs, c.fys, c.fzs)
	}
	en.VdW += evdw
	en.Elec += eelec
	en.Virial += vir
	for s, a := range l.Atom {
		if a < 0 {
			continue
		}
		e.forces[a] = e.forces[a].Add(vec.New(c.fxs[s], c.fys[s], c.fzs[s]))
	}
}

// resizeF64 keeps capacity ≥ n+8: the cluster kernels take fixed
// 8-capacity re-slices of a cluster's slot run (see
// forcefield.NonbondedCluster).
func resizeF64(s []float64, n int) []float64 {
	if cap(s) < n+8 {
		return make([]float64, n, n+n/8+8)
	}
	return s[:n]
}

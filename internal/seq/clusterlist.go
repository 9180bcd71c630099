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
// skin/2 drift rule shared with the other list modes.
type clusterState struct {
	skin    float64
	mixed   bool                         // float32 fast path
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

	refPos   []vec.V3
	guard    spatial.DriftGuard
	rebuilds int
	scans    int
	skips    int
}

// EnableClusterLists switches the engine's nonbonded evaluation to M×N
// cluster pair lists with the given skin (Å), rebuilt under the same
// skin/2 drift rule as the atom-pair lists. mixed selects the
// float32-accumulation fast path (float64 per-cluster reduction).
//
// Construct with gonamd.NewSequential(sys, ff, st,
// gonamd.WithClusterLists(m, n)) instead where possible; the option
// validates the geometry and delegates here.
func (e *Engine) EnableClusterLists(m, n int, skin float64, mixed bool) error {
	if skin <= 0 {
		skin = DefaultClusterSkin
	}
	b, err := spatial.NewClusterBuilder(e.Sys.Box, m, n, e.FF.Cutoff+skin)
	if err != nil {
		return err
	}
	cl := &clusterState{skin: skin, mixed: mixed, builder: b, exclFn: e.Sys.ForEachExcludedPair}
	cl.data.EnableF32(mixed)
	cl.guard.Limit = skin / 2
	cl.guard.Invalidate()
	e.clusters = cl
	e.plist = nil
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
// form); combined with the mixed fast path it selects the float32
// tabulated kernel.
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
// bitwise-identical through the full engine pipeline. It is ignored in
// mixed-precision mode (the reference is float64-only).
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
	return e.clusters.rebuilds
}

// valid mirrors pairlist.valid: the drift bound answers most checks in
// O(1); a failed bound falls back to the O(N) displacement scan.
func (c *clusterState) valid(st *topology.State, box vec.V3) bool {
	if c.list == nil {
		return false
	}
	if c.guard.CanSkip() {
		c.skips++
		return true
	}
	c.scans++
	d2 := spatial.MaxDisplacement2(st.Pos, c.refPos, box)
	limit := c.guard.Limit
	if d2 > limit*limit {
		return false
	}
	c.guard.Seed(math.Sqrt(d2))
	return true
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
	if c.refPos == nil {
		c.refPos = make([]vec.V3, e.Sys.N())
	}
	copy(c.refPos, e.St.Pos)
	c.guard.Reset()
	c.rebuilds++
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
	case c.tab != nil && c.mixed:
		evdw, eelec, vir = e.FF.NonbondedClusterTab32(c.tab, l, &c.data, c.ics, c.fxs, c.fys, c.fzs)
	case c.tab != nil && c.useRef:
		evdw, eelec, vir = e.FF.NonbondedClusterTabRef(c.tab, l, &c.data, c.ics, c.fxs, c.fys, c.fzs)
	case c.tab != nil:
		evdw, eelec, vir = e.FF.NonbondedClusterTab(c.tab, l, &c.data, c.ics, c.fxs, c.fys, c.fzs)
	case c.mixed:
		evdw, eelec, vir = e.FF.NonbondedCluster32(l, &c.data, c.ics, c.fxs, c.fys, c.fzs)
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

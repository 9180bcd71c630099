package par

import (
	"math"

	"gonamd/internal/forcefield"
	"gonamd/internal/seq"
	"gonamd/internal/spatial"
	"gonamd/internal/vec"
)

// Cluster pair lists on the parallel engine: one global M×N cluster list
// (spatial.ClusterBuilder) replaces the cell walk's per-task candidate
// screening. The driver rebuilds the list under the skin/2 drift rule
// (spatial.DriftGuard), assigns each i-cluster to the spatial cell
// containing its bounding-box center, and nonbonded work decomposes into
// one task per cell covering that cell's contiguous run of the
// cell-grouped cluster order — so the measured-task-time load balancers
// keep working unchanged, and task identities (and their measurements)
// survive rebuilds. Workers accumulate slot-indexed forces into private
// buffers and flush them into their atom-indexed accumulators by touched
// lcm(M,N)-aligned slot block, keeping both the flush and the
// deterministic sparse reduction O(touched); the buffers are re-zeroed
// while flushing, so no bulk clear is ever needed and the steady state
// stays allocation-free.

// parClusterState is the engine-side state of cluster-mode evaluation.
type parClusterState struct {
	useRef  bool                         // evaluate via the scalar-replay reference kernel (tests)
	tab     *forcefield.InteractionTable // tabulated kernels when non-nil
	builder *spatial.ClusterBuilder
	list    *spatial.ClusterList
	data    forcefield.ClusterData
	exclFn  func(func(i, j int32, modified bool)) // bound once; rebuilds allocate nothing
	guard   spatial.DriftGuard                    // skin/2 drift rule; counts builds, scans, skips

	// Atom-indexed kernel inputs, extracted once from the topology.
	types   []int32
	charges []float64

	// clOrder holds all i-cluster indices grouped by owning cell; the
	// cell's taskCluster covers clOrder[task.lo:task.hi]. cellOf/cellCnt
	// are counting-sort scratch reused across rebuilds.
	clOrder []int32
	cellOf  []int32
	cellCnt []int32
}

// EnableClusterLists switches the engine's nonbonded evaluation to M×N
// cluster pair lists with the given skin (Å; ≤ 0 selects the default),
// rebuilt once some atom has drifted more than skin/2 since the build.
// The spatial grid is rebuilt with cells at least cutoff+skin wide and
// the task decomposition becomes one nonbonded task per cell plus the
// usual bonded chunks.
//
// Construct with gonamd.NewParallel(sys, ff, st, workers,
// gonamd.WithClusterLists(m, n)) instead where possible; the option
// validates the geometry and delegates here.
func (e *Engine) EnableClusterLists(m, n int, skin float64) error {
	if skin <= 0 {
		skin = seq.DefaultClusterSkin
	}
	builder, err := spatial.NewClusterBuilder(e.Sys.Box, m, n, e.FF.Cutoff+skin)
	if err != nil {
		return err
	}
	grid, err := spatial.NewGrid(e.Sys.Box, e.FF.Cutoff+skin)
	if err != nil {
		return err
	}
	e.grid = grid
	e.binner = spatial.NewBinner(grid)

	c := &parClusterState{builder: builder, exclFn: e.Sys.ForEachExcludedPair}
	c.guard.Limit = skin / 2
	na := e.Sys.N()
	c.types = make([]int32, na)
	c.charges = make([]float64, na)
	for i := 0; i < na; i++ {
		c.types[i] = e.Sys.Atoms[i].Type
		c.charges[i] = e.Sys.Atoms[i].Charge
	}
	e.clb = c

	// One nonbonded task per cell (cluster ranges filled per rebuild)
	// plus the usual bonded chunks.
	e.buildTasks(true)
	e.staticAssign()
	e.fresh = false
	return nil
}

// EnableTabulatedKernels switches cluster-mode nonbonded evaluation to
// the r²-indexed interaction table (see the sequential engine's method
// for the contract). The table is built once here from the engine's
// current force field and shared read-only by every worker; per-task
// evaluation order, the touched-block flush, and the deterministic
// sparse reduction are unchanged, so tabulated parallel runs stay
// bitwise reproducible for a fixed worker count and mode and the
// steady-state step stays allocation-free.
func (e *Engine) EnableTabulatedKernels(spacing float64) error {
	if e.clb == nil {
		return seq.ErrTabNeedsClusters
	}
	tab, err := e.FF.BuildInteractionTable(spacing)
	if err != nil {
		return err
	}
	e.clb.tab = tab
	e.fresh = false
	return nil
}

// UseReferenceClusterKernel toggles evaluation through the scalar-replay
// reference kernel (forcefield.NonbondedClusterRef, or in table mode the
// pure-Go forcefield.NonbondedClusterTabRef) instead of the optimized
// one; differential tests use it to prove the optimized kernel
// bitwise-identical through the full engine pipeline.
func (e *Engine) UseReferenceClusterKernel(on bool) {
	if e.clb != nil {
		e.clb.useRef = on
		e.fresh = false
	}
}

// ClusterRebuilds reports how many times the cluster list was (re)built.
func (e *Engine) ClusterRebuilds() int {
	if e.clb == nil {
		return 0
	}
	return e.clb.guard.Builds
}

// rebuildClusters regenerates the global cluster list at the current
// positions, refreshes the static slot tables, regroups clusters by
// owning cell into clOrder, updates every cluster task's range (the task
// objects — and their measured times — persist), and sizes the workers'
// slot force buffers. Runs in the driver, strictly before evaluation, so
// a rebuild step evaluates exactly the same list a replay step would.
func (e *Engine) rebuildClusters() {
	c := e.clb
	c.list = c.builder.Build(e.St.Pos, c.exclFn)
	c.guard.Built(e.St.Pos)
	c.data.LoadStatic(c.list, c.types, c.charges)

	numI := c.list.NumI()
	np := e.grid.NumPatches()
	c.cellOf = resizeI32p(c.cellOf, numI)
	c.cellCnt = resizeI32p(c.cellCnt, np+1)
	c.clOrder = resizeI32p(c.clOrder, numI)
	for i := 0; i <= np; i++ {
		c.cellCnt[i] = 0
	}
	for ic := 0; ic < numI; ic++ {
		cell := e.grid.PatchOf(c.list.CenterI(ic))
		c.cellOf[ic] = int32(cell)
		c.cellCnt[cell]++
	}
	// Prefix sums → cell offsets; reuse cellCnt as the write cursor.
	sum := int32(0)
	for cell := 0; cell < np; cell++ {
		n := c.cellCnt[cell]
		c.cellCnt[cell] = sum
		sum += n
	}
	c.cellCnt[np] = sum
	for ti := range e.tasks {
		t := &e.tasks[ti]
		if t.kind == taskCluster {
			t.lo = int(c.cellCnt[t.cellA])
			t.hi = int(c.cellCnt[t.cellA+1])
		}
	}
	for ic := 0; ic < numI; ic++ {
		cell := c.cellOf[ic]
		c.clOrder[c.cellCnt[cell]] = int32(ic)
		c.cellCnt[cell]++
	}
	// cellCnt is now shifted one cell left (cursor ran to each cell's
	// end); task ranges were captured above, so nothing else reads it.

	// Worker slot buffers: sized to the padded slot count, zeroed by
	// construction and kept zero by the flush (see flushClusterForces).
	slots := c.list.Slots()
	nblk := slots / c.builder.L
	for w := range e.wstates {
		ws := &e.wstates[w]
		ws.fxs = growZeroF64(ws.fxs, slots)
		ws.fys = growZeroF64(ws.fys, slots)
		ws.fzs = growZeroF64(ws.fzs, slots)
		ws.blkMark = growZeroBool(ws.blkMark, nblk)
		if ws.blkTouch == nil {
			ws.blkTouch = make([]int32, 0, nblk+8)
		}
	}
}

// runClusterTask evaluates one cell's clusters with the configured
// kernel, recording which lcm(M,N)-aligned slot blocks the worker's
// buffers were written in (i-cluster and entry j-cluster ranges never
// straddle a block boundary).
func (e *Engine) runClusterTask(t *task, ws *wstate, en *seq.Energies) {
	c := e.clb
	l := c.list
	ics := c.clOrder[t.lo:t.hi]
	if len(ics) == 0 {
		return
	}
	L := c.builder.L
	for _, ic := range ics {
		lo, hi := l.EntryOff[ic], l.EntryOff[ic+1]
		if lo == hi {
			continue
		}
		if blk := int(ic) * l.M / L; !ws.blkMark[blk] {
			ws.blkMark[blk] = true
			ws.blkTouch = append(ws.blkTouch, int32(blk))
		}
		for _, ent := range l.Entries[lo:hi] {
			if blk := int(ent.J) * l.N / L; !ws.blkMark[blk] {
				ws.blkMark[blk] = true
				ws.blkTouch = append(ws.blkTouch, int32(blk))
			}
		}
	}
	var evdw, eelec, vir float64
	switch {
	case c.tab != nil && c.useRef:
		evdw, eelec, vir = e.FF.NonbondedClusterTabRef(c.tab, l, &c.data, ics, ws.fxs, ws.fys, ws.fzs)
	case c.tab != nil:
		evdw, eelec, vir = e.FF.NonbondedClusterTab(c.tab, l, &c.data, ics, ws.fxs, ws.fys, ws.fzs)
	case c.useRef:
		evdw, eelec, vir = e.FF.NonbondedClusterRef(l, &c.data, ics, ws.fxs, ws.fys, ws.fzs)
	default:
		evdw, eelec, vir = e.FF.NonbondedCluster(l, &c.data, ics, ws.fxs, ws.fys, ws.fzs)
	}
	en.VdW += evdw
	en.Elec += eelec
	en.Virial += vir
}

// flushClusterForces folds the worker's slot force buffers into its
// atom-indexed accumulator (by touched block, in task execution order —
// deterministic for a fixed assignment) and re-zeroes them in the same
// walk, restoring the all-zero invariant without a bulk clear.
func (e *Engine) flushClusterForces(ws *wstate) {
	c := e.clb
	l := c.list
	L := c.builder.L
	atomOf := l.Atom
	for _, blk := range ws.blkTouch {
		base := int(blk) * L
		for s := base; s < base+L; s++ {
			if a := atomOf[s]; a >= 0 {
				ws.add(a, vec.New(ws.fxs[s], ws.fys[s], ws.fzs[s]))
			}
			ws.fxs[s], ws.fys[s], ws.fzs[s] = 0, 0, 0
		}
		ws.blkMark[blk] = false
	}
	ws.blkTouch = ws.blkTouch[:0]
}

// advanceGuard feeds one integration step's maximum displacement bound
// (|v|max·dt) to the cluster list's drift guard.
func (e *Engine) advanceGuard(maxV2, dt float64) {
	if e.clb != nil {
		e.clb.guard.Advance(math.Sqrt(maxV2) * dt)
	}
}

func resizeI32p(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n, n+n/8+8)
	}
	return s[:n]
}

// growZeroF64 returns a slice of length n whose every element is zero,
// reusing the input's storage when possible (the caller maintains the
// all-zero invariant on the full capacity). Capacity stays ≥ n+8: the
// cluster kernels take fixed 8-capacity re-slices of a cluster's slot
// run (see forcefield.NonbondedCluster).
func growZeroF64(s []float64, n int) []float64 {
	if cap(s) < n+8 {
		return make([]float64, n, n+n/8+8)
	}
	return s[:n]
}

func growZeroBool(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n, n+n/8+8)
	}
	return s[:n]
}

package spatial

import (
	"math"

	"gonamd/internal/vec"
)

// Binner bins atoms into a grid's patches using storage that is reused
// across calls, so steady-state rebinning performs no heap allocations.
// The engines rebin every step (direct cell paths) or on every Verlet
// list rebuild (cached list paths); either way the per-call [][]int32 of
// Grid.Bin was the dominant recurring allocation source.
type Binner struct {
	grid  *Grid
	ids   []int32   // scratch: patch of each atom
	cnt   []int32   // scratch: per-cell population
	flat  []int32   // backing store for all cells
	cells [][]int32 // per-cell views into flat
}

// NewBinner creates a reusable binner for the grid.
func NewBinner(g *Grid) *Binner {
	np := g.NumPatches()
	return &Binner{grid: g, cnt: make([]int32, np), cells: make([][]int32, np)}
}

// Bin distributes atoms into patches by position. For each patch it
// returns the atom indices in ascending order (matching Grid.Bin). The
// returned slices alias the binner's internal storage and are valid until
// the next Bin call.
func (b *Binner) Bin(pos []vec.V3) [][]int32 {
	if cap(b.ids) < len(pos) {
		b.ids = make([]int32, len(pos))
		b.flat = make([]int32, len(pos))
	}
	ids := b.ids[:len(pos)]
	flat := b.flat[:len(pos)]

	// Counting sort: cell of each atom, per-cell populations, prefix
	// offsets, then stable placement — visiting atoms in index order keeps
	// every cell's list ascending.
	for i := range b.cnt {
		b.cnt[i] = 0
	}
	for i, p := range pos {
		id := int32(b.grid.PatchOf(p))
		ids[i] = id
		b.cnt[id]++
	}
	var start int32
	for c := range b.cells {
		n := b.cnt[c]
		b.cells[c] = flat[start : start : start+n]
		start += n
	}
	for i, id := range ids {
		b.cells[id] = append(b.cells[id], int32(i))
	}
	return b.cells
}

// DriftGuard decides when a Verlet list must be rebuilt. A list built
// with skin s covers every within-cutoff pair while no atom has moved
// more than Limit = s/2 from the positions it was built at. The guard
// keeps a conservative upper bound on that displacement so the O(N)
// displacement scan can be skipped entirely on steps where the bound
// proves the list still valid. Integrators feed it the maximum
// single-step displacement after every drift (Advance); any code path
// that moves positions without accounting (minimization, constraint
// projection, external edits) must call Invalidate, which forces scans
// until the next build.
type DriftGuard struct {
	Limit float64  // maximum permitted displacement (skin/2)
	bound float64  // accumulated displacement bound; < 0 means unknown
	ref   []vec.V3 // positions at the last build
	built bool     // ref holds a build that Forget has not dropped

	// Builds counts Built calls; Scans counts validity checks that ran
	// the displacement scan, Skips those answered by the bound alone.
	Builds, Scans, Skips int
}

// Valid reports whether the list recorded by the last Built call still
// covers every within-cutoff pair at pos. A passing scan measures the
// true maximum displacement and re-arms the bound with it, so following
// checks can skip the scan again.
func (g *DriftGuard) Valid(pos []vec.V3, box vec.V3) bool {
	if !g.built {
		return false
	}
	if g.bound >= 0 && g.bound <= g.Limit {
		g.Skips++
		return true
	}
	g.Scans++
	var max2 float64
	for i := range pos {
		if d2 := vec.MinImage(pos[i], g.ref[i], box).Norm2(); d2 > max2 {
			max2 = d2
		}
	}
	if max2 > g.Limit*g.Limit {
		return false
	}
	g.bound = math.Sqrt(max2)
	return true
}

// Built records pos as the reference positions of a freshly built list.
func (g *DriftGuard) Built(pos []vec.V3) {
	if len(g.ref) != len(pos) {
		g.ref = make([]vec.V3, len(pos))
	}
	copy(g.ref, pos)
	g.bound = 0
	g.built = true
	g.Builds++
}

// Forget drops the list history: the next Valid reports false, so the
// list is rebuilt from the positions it then sees.
func (g *DriftGuard) Forget() { g.built = false }

// Invalidate marks the bound unknown, forcing full scans.
func (g *DriftGuard) Invalidate() { g.bound = -1 }

// Advance adds one step's maximum per-atom displacement to the bound.
func (g *DriftGuard) Advance(maxStep float64) {
	if g.bound >= 0 {
		g.bound += maxStep
	}
}

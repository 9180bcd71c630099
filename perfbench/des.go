package main

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"time"

	"gonamd/internal/bench"
	"gonamd/internal/core"
	"gonamd/internal/ldb"
	"gonamd/internal/machine"
	"gonamd/internal/molgen"
	"gonamd/internal/spatial"
)

// des-scale runs the paper-scale cluster simulation: the ApoA-I workload
// on the ASCI-Red model at 256 and 1024 virtual PEs, centralized
// greedy+refine with flat multicast against hierarchical balancing with
// spanning-tree multicast — the configurations of docs/scaletables_output.txt.
// The simulation is deterministic; the seed only permutes the order the
// four configurations run in (and seeds the traced run's ldb probe).
const (
	desSetups    = 2 // workload builds; setup_s is their median
	desReference = "docs/scaletables_output.txt"
)

// desConfig is one configuration of the sweep.
type desConfig struct {
	pes  int
	tree bool
}

func (c desConfig) name() string {
	if c.tree {
		return fmt.Sprintf("%d.hier_tree", c.pes)
	}
	return fmt.Sprintf("%d.central", c.pes)
}

func (c desConfig) config(model machine.Model) core.Config {
	if c.tree {
		return bench.ScaleConfig(model, c.pes)
	}
	return bench.StdConfig(model, c.pes)
}

var desConfigs = []desConfig{{256, false}, {256, true}, {1024, false}, {1024, true}}

// desRefMsgs pins each configuration's message count (core.Result
// TotalMsgs) as produced on the seed commit; the cluster simulation is
// deterministic, so any other count is a failed check.
var desRefMsgs = map[string]int{
	"256.central":    660712,
	"256.hier_tree":  643045,
	"1024.central":   701546,
	"1024.hier_tree": 794889,
}

// buildDESWorkload builds the ApoA-I workload the way the published scale
// study does (bench.ApoA1Workload, minus its process-wide cache).
func buildDESWorkload() (w *core.Workload, build, measure time.Duration, err error) {
	spec := molgen.ApoA1()
	spec.Temperature = 0 // velocities are irrelevant for the cluster sim
	t := time.Now()
	sys, st, err := molgen.Build(spec)
	if err != nil {
		return nil, 0, 0, err
	}
	build = time.Since(t)
	t = time.Now()
	grid, err := spatial.NewGridDims(spec.Box, spec.PatchDims, molgen.Cutoff)
	if err != nil {
		return nil, 0, 0, err
	}
	w, err = core.BuildWorkload(spec.Name, sys, st, grid, molgen.Cutoff, bench.ListDist)
	return w, build, time.Since(t), err
}

// desRun is one configuration's outcome.
type desRun struct {
	cfg desConfig
	res *core.Result
}

func runDESScale(cfg runConfig, rep *report) error {
	ref, err := readScaleReference(desReference)
	if err != nil {
		return err
	}
	var w *core.Workload
	var total, build, measure []float64
	for i := 0; i < desSetups; i++ {
		t := time.Now()
		var b, m time.Duration
		if w, b, m, err = buildDESWorkload(); err != nil {
			return err
		}
		total = append(total, time.Since(t).Seconds())
		build = append(build, b.Seconds())
		measure = append(measure, m.Seconds())
	}
	rep.set("setup_s", median(total))
	rep.set("molgen.build_s", median(build))
	rep.set("core.workload_build_s", median(measure))

	rng := rand.New(rand.NewSource(int64(cfg.seed)))
	order := append([]desConfig(nil), desConfigs...)
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	model := machine.ASCIRed()
	var simMs, sweeps []float64
	perConfig := map[string][]float64{}
	var last []desRun
	// Sweep until the next sweep would overrun the budget (at least one).
	start := time.Now()
	for len(sweeps) == 0 || time.Since(start)+time.Duration(sweeps[len(sweeps)-1]*float64(time.Second)) <= cfg.budget(1) {
		last = last[:0]
		var sweep time.Duration
		for _, c := range order {
			var res *core.Result
			d := timed(func() {
				sim, serr := core.NewSim(w, c.config(model))
				if serr != nil {
					err = serr
					return
				}
				res = sim.Run()
			})
			if err != nil {
				return err
			}
			sweep += d
			simMs = append(simMs, ms(d))
			perConfig[c.name()] = append(perConfig[c.name()], d.Seconds())
			last = append(last, desRun{c, res})
			checkDESRow(c, res, ref, rep)
		}
		sweeps = append(sweeps, sweep.Seconds())
	}

	rep.set("latency_ms_p50", median(simMs))
	rep.set("latency_samples", float64(len(simMs)))
	rep.set("throughput_per_s", float64(len(simMs))/(1e-3*sum(simMs)))
	rep.set("sweep_s", median(sweeps))
	var msgs, bytes int
	for _, r := range last {
		rep.set("core.run_s."+r.cfg.name(), median(perConfig[r.cfg.name()]))
		msgs += r.res.TotalMsgs
		bytes += r.res.TotalBytes
		if r.cfg == (desConfig{1024, true}) {
			rep.set("ldb.imbalance_pct", finalImbalancePct(r.res.LBStats))
		}
	}
	rep.set("converse.msgs", float64(msgs))
	rep.set("charm.bytes", float64(bytes))
	rep.set("converse.msgs_per_s", float64(msgs)/median(sweeps))

	if cfg.trace {
		// The probe runs after the sweep, so the measured section is the
		// same as in an untraced run.
		rep.set("trace.overhead_frac", 0)
		central, hier := probeLBMap(w, last, rng)
		rep.set("ldb.map_ms", central)
		rep.set("ldb.map_ms.hierarchical", hier)
	}
	return nil
}

// checkDESRow counts one operation per simulation: its modeled s/step
// must equal the published row to the printed precision, and its message
// count must repeat the pinned count exactly.
func checkDESRow(c desConfig, res *core.Result, ref map[int][2]string, rep *report) {
	want, ok := ref[c.pes]
	col := 0
	if c.tree {
		col = 1
	}
	got := fmt.Sprintf("%.4g", res.AvgStep)
	rep.check(ok && got == want[col] && res.TotalMsgs == desRefMsgs[c.name()],
		fmt.Sprintf("des %s: s/step %s (reference %q), msgs %d (reference %d)", c.name(), got, want[col], res.TotalMsgs, desRefMsgs[c.name()]))
}

// readScaleReference parses the ApoA-I table of the published scale
// study: PE count → printed s/step of the centralized and hier+tree
// columns.
func readScaleReference(path string) (map[int][2]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("reading the scale-study reference: %w", err)
	}
	defer f.Close()
	ref := map[int][2]string{}
	sc := bufio.NewScanner(f)
	inApoA1 := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "Scale study: ") {
			inApoA1 = strings.Contains(line, "ApoA-I")
			continue
		}
		fields := strings.Fields(line)
		var pes int
		if !inApoA1 || len(fields) < 3 {
			continue
		}
		if _, err := fmt.Sscanf(fields[0], "%d", &pes); err != nil {
			continue
		}
		ref[pes] = [2]string{fields[1], fields[2]}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, c := range desConfigs {
		if _, ok := ref[c.pes]; !ok {
			return nil, fmt.Errorf("%s has no ApoA-I row for %d PEs", path, c.pes)
		}
	}
	return ref, nil
}

// finalImbalancePct is the last balancing pass's imbalance as a percent
// of the average load (the scale table's imbal% column).
func finalImbalancePct(stats []ldb.Stats) float64 {
	if len(stats) == 0 || stats[len(stats)-1].AvgLoad == 0 {
		return 0
	}
	last := stats[len(stats)-1]
	return 100 * last.Imbalance / last.AvgLoad
}

// probeLBMap times one initial balancing pass of each strategy on a
// problem the size of the 1024-PE run: the workload's self and pair
// computes split into as many objects as that simulation created, with
// loads proportional to listed pairs (±10% seeded jitter), each starting
// on its first patch's home PE.
func probeLBMap(w *core.Workload, runs []desRun, rng *rand.Rand) (centralMs, hierMs float64) {
	const pes = 1024
	computes := 0
	for _, r := range runs {
		if r.cfg.pes == pes {
			computes = r.res.NumComputes
		}
	}
	np := len(w.Self)
	p := &ldb.Problem{NumPE: pes, NumPatches: np, PatchHome: make([]int, np)}
	for i := range p.PatchHome {
		p.PatchHome[i] = i * pes / np
	}
	pieces := int(math.Max(1, math.Round(float64(computes)/float64(np+len(w.Pairs)))))
	add := func(listed int64, patches []int) {
		for k := 0; k < pieces; k++ {
			load := 1e-8 * float64(listed) / float64(pieces) * (0.9 + 0.2*rng.Float64())
			p.Objects = append(p.Objects, ldb.Object{Load: load, Patches: patches, Migratable: true, PE: p.PatchHome[patches[0]]})
		}
	}
	for i, c := range w.Self {
		add(c.Listed, []int{i})
	}
	for i, pr := range w.Pairs {
		add(w.PairCounts[i].Listed, []int{pr[0], pr[1]})
	}
	centralMs = medianOf(func() { (&ldb.GreedyRefine{}).Map(p, 0) })
	hierMs = medianOf(func() { (&ldb.Hierarchical{}).Map(p, 0) })
	return centralMs, hierMs
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

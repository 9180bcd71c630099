// Command perfbench is gonamd's end-to-end and per-layer benchmark.
//
// One invocation runs one named workload for a fixed wall-clock budget
// and prints every metric by name and unit, then a final JSON line:
//
//	perfbench --workload md-cutoff --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the final line carries the end-to-end metrics; with
// --trace 1 the same workload runs again and is followed by a probe phase
// that times calls into each layer, and the final line carries the
// per-layer metrics. Every run also writes a record (hardware header,
// seed, all metrics) under .bench_build/records/. Two records compare
// with
//
//	perfbench compare OLD.json NEW.json
//
// which refuses records from different hardware classes.
//
// The metric catalogue lives in metrics.go and must match BENCHMARK.json
// at the repository root; METRICS.md documents what each metric measures
// and which end-to-end metric each per-layer metric should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// workload is one named benchmark workload. run measures it for the
// given budget and fills the report; it returns an error only when the
// benchmark itself cannot proceed (a failed correctness check is counted
// in the report instead).
type workload struct {
	name string
	run  func(cfg runConfig, rep *report) error
}

var workloads = []workload{
	{"md-cutoff", runMDCutoff},
	{"md-pme", runMDPME},
	{"serve-mix", runServeMix},
	{"des-scale", runDESScale},
}

// runConfig is the command line of one measurement run.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	nproc    int
}

// budget returns the share frac of the run's measurement budget.
func (c runConfig) budget(frac float64) time.Duration {
	return time.Duration(frac * c.seconds * float64(time.Second))
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	if err := benchMain(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func benchMain(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (md-cutoff, md-pme, serve-mix, des-scale)")
	seed := fs.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "measurement budget in seconds")
	traced := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *traced)
	}
	if !(*seconds > 0) {
		return fmt.Errorf("--seconds must be positive, got %g", *seconds)
	}
	cat, err := loadCatalogue("BENCHMARK.json")
	if err != nil {
		return err
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return fmt.Errorf("unknown workload %q", *name)
	}

	cfg := runConfig{workload: *name, seed: *seed, seconds: *seconds, trace: *traced == 1, nproc: runtime.NumCPU()}
	runtime.GOMAXPROCS(cfg.nproc)
	rep := newReport()
	if err := wl.run(cfg, rep); err != nil {
		return fmt.Errorf("%s: %w", *name, err)
	}
	rep.set("peak_rss_mb", peakRSSMB())
	if rep.attempted < 1 {
		return errors.New("workload attempted no operations")
	}
	rep.set("fail_frac", float64(rep.failed)/float64(rep.attempted))

	hdr := newHeader(cfg)
	rec := record{Header: hdr, Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: rep.values}
	if err := writeRecord(rec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing record:", err)
	}

	list := cat.EndToEnd
	if cfg.trace {
		list = cat.PerLayer
	}
	out := result{Correct: rec.Correct, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricValue{}}
	fmt.Fprintf(stdout, "# %s seed=%d seconds=%g trace=%v gomaxprocs=%d nproc=%d cpu=%q go=%s commit=%s\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, hdr.GOMAXPROCS, hdr.NProc, hdr.CPUModel, hdr.GoVersion, hdr.Commit)
	for _, n := range rep.order {
		fmt.Fprintf(stdout, "%-34s %16.6g %s\n", n, rep.values[n], unitOf(cat, n))
	}
	for _, m := range list {
		// A layer this workload does not exercise reads zero (for example
		// pme.recip_ms on md-cutoff); METRICS.md lists which.
		out.Metrics[m.Name] = metricValue{Value: rep.values[m.Name], Unit: m.Unit}
	}
	fmt.Fprintf(stdout, "# correct=%v attempted=%d failed=%d\n", out.Correct, out.Attempted, out.Failed)
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// result is the final stdout line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates a run's metrics (every name the run measured, in
// measurement order) and its operation counts.
type report struct {
	values    map[string]float64
	order     []string
	attempted int64
	failed    int64
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) set(name string, v float64) {
	if _, ok := r.values[name]; !ok {
		r.order = append(r.order, name)
	}
	r.values[name] = v
}

// check counts one checked operation, failed unless ok.
func (r *report) check(ok bool, what string) {
	r.attempted++
	if !ok {
		r.failed++
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", what)
	}
}

// timed runs f and returns its wall time.
func timed(f func()) time.Duration {
	t := time.Now()
	f()
	return time.Since(t)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

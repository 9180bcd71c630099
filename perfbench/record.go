package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// recordSchema versions the on-disk record format.
const recordSchema = "gonamd-perfbench/1"

// recordDir is where every run leaves its record, relative to the
// checkout root (ignored by git, like the build output beside it).
const recordDir = ".bench_build/records"

// header identifies the code, inputs and hardware a record was made on.
type header struct {
	Schema     string  `json:"schema"`
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Time       string  `json:"time"`
}

// hardwareClass is what two records must share to be comparable: the
// same CPU model, core count and parallelism. Timings across classes
// differ by hardware, not by code, so compare refuses them.
func (h header) hardwareClass() string {
	return fmt.Sprintf("%s/%s cpu=%q nproc=%d gomaxprocs=%d", h.GOOS, h.GOARCH, h.CPUModel, h.NProc, h.GOMAXPROCS)
}

type record struct {
	Header    header             `json:"header"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
}

func newHeader(cfg runConfig) header {
	return header{
		Schema:     recordSchema,
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Trace:      cfg.trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      cfg.nproc,
		CPUModel:   cpuModel(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GoVersion:  runtime.Version(),
		Commit:     gitCommit("."),
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
}

func writeRecord(rec record) error {
	if err := os.MkdirAll(recordDir, 0o755); err != nil {
		return err
	}
	h := rec.Header
	name := fmt.Sprintf("%s-seed%d-trace%d-%d.json", h.Workload, h.Seed, btoi(h.Trace), time.Now().UnixNano())
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(recordDir, name), append(data, '\n'), 0o644)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit resolves HEAD from a .git directory at root without running
// git; a checkout without one (an exported tree) reports "unknown".
func gitCommit(root string) string {
	gitDir := filepath.Join(root, ".git")
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(gitDir, ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(gitDir, "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// compareMain compares two records of the same workload metric by
// metric against the bounds in BENCHMARK.json. It exits 2 when the
// records come from different hardware classes or workloads, 1 when an
// end-to-end metric got worse by more than its bound, and 0 otherwise.
func compareMain(args []string, out io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare OLD.json NEW.json")
		return 2
	}
	var recs [2]record
	for i, path := range args {
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, &recs[i])
		}
		if err == nil && recs[i].Header.Schema != recordSchema {
			err = fmt.Errorf("schema %q, want %q", recs[i].Header.Schema, recordSchema)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", path, err)
			return 2
		}
	}
	old, cur := recs[0], recs[1]
	if a, b := old.Header.hardwareClass(), cur.Header.hardwareClass(); a != b {
		fmt.Fprintf(out, "refusing to compare across hardware classes:\n  old: %s\n  new: %s\n", a, b)
		return 2
	}
	if old.Header.Workload != cur.Header.Workload {
		fmt.Fprintf(out, "refusing to compare different workloads: %s vs %s\n", old.Header.Workload, cur.Header.Workload)
		return 2
	}
	cat, err := loadCatalogue("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	status := 0
	fmt.Fprintf(out, "%s: %s (%s) -> %s (%s)\n", cur.Header.Workload, old.Header.Commit, old.Header.Time, cur.Header.Commit, cur.Header.Time)
	names := make([]string, 0, len(cur.Metrics))
	for n := range cur.Metrics {
		if _, ok := old.Metrics[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		a, b := old.Metrics[n], cur.Metrics[n]
		change := relChange(a, b)
		verdict := ""
		if m, ok := cat.endToEnd(n); ok && a != 0 {
			worse := change
			if m.Better == "higher" {
				worse = -worse
			}
			verdict = fmt.Sprintf("bound %.0f%%", 100*m.Bound)
			if worse > m.Bound {
				verdict += "  REGRESSION"
				status = 1
			}
		}
		fmt.Fprintf(out, "%-34s %14.6g %14.6g %+8.1f%%  %s\n", n, a, b, 100*change, verdict)
	}
	return status
}

func relChange(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return (b - a) / a
}

// catalogue is the metric list of BENCHMARK.json.
type catalogue struct {
	EndToEnd []catalogueMetric `json:"end_to_end"`
	PerLayer []catalogueMetric `json:"per_layer"`
}

type catalogueMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func (c *catalogue) endToEnd(name string) (catalogueMetric, bool) {
	for _, m := range c.EndToEnd {
		if m.Name == name {
			return m, true
		}
	}
	return catalogueMetric{}, false
}

// loadCatalogue reads BENCHMARK.json and checks that it lists exactly the
// metrics this program defines (metrics.go), with the same units, so the
// printed names and the documented ones cannot drift apart.
func loadCatalogue(path string) (*catalogue, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading metric catalogue: %w", err)
	}
	var c catalogue
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	for _, pair := range []struct {
		kind string
		got  []catalogueMetric
		want []metricDef
	}{{"end_to_end", c.EndToEnd, endToEndMetrics}, {"per_layer", c.PerLayer, perLayerMetrics}} {
		if len(pair.got) != len(pair.want) {
			return nil, fmt.Errorf("%s lists %d %s metrics, the benchmark defines %d", path, len(pair.got), pair.kind, len(pair.want))
		}
		for i, m := range pair.got {
			if w := pair.want[i]; m.Name != w.name || m.Unit != w.unit {
				return nil, fmt.Errorf("%s %s[%d] is %s (%s), the benchmark defines %s (%s)", path, pair.kind, i, m.Name, m.Unit, w.name, w.unit)
			}
		}
	}
	return &c, nil
}

func unitOf(c *catalogue, name string) string {
	for _, list := range [][]catalogueMetric{c.EndToEnd, c.PerLayer} {
		for _, m := range list {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	return ""
}

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of xs.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

// median is the midpoint median (mean of the two middle values for an
// even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

package gonamd_test

import (
	"encoding/json"
	"reflect"
	"testing"

	"gonamd"
)

// specSystem builds a tiny water box for spec-bridge tests.
func specSystem(t *testing.T) (*gonamd.System, *gonamd.State, *gonamd.ForceField) {
	t.Helper()
	sys, st, err := gonamd.BuildSystem(gonamd.WaterBoxSpec(10, 7))
	if err != nil {
		t.Fatal(err)
	}
	return sys, st, gonamd.StandardForceField(4.5)
}

// TestEngineSpecMatchesOptions: an engine built through the JSON spec
// bridge must be bitwise-identical in behavior to one built directly
// with the corresponding functional options.
func TestEngineSpecMatchesOptions(t *testing.T) {
	sys, st, ff := specSystem(t)

	raw := `{
		"engine": "sequential",
		"cluster_m": 4, "cluster_n": 4,
		"thermostat": {"kind": "langevin", "temperature": 310, "seed": 99}
	}`
	var spec gonamd.EngineSpec
	if err := json.Unmarshal([]byte(raw), &spec); err != nil {
		t.Fatal(err)
	}
	stA := st.Clone()
	specEng, th, err := spec.NewEngine(sys, ff, stA)
	if err != nil {
		t.Fatal(err)
	}
	if th == nil || th.Name() != "langevin" {
		t.Fatalf("thermostat handle = %v, want langevin", th)
	}

	stB := st.Clone()
	optEng, err := gonamd.NewSequential(sys, ff, stB,
		gonamd.WithClusterLists(4, 4),
		gonamd.WithThermostat(&gonamd.Langevin{Target: 310, Gamma: 0.005, Seed: 99}))
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 20; i++ {
		specEng.Step(0.5)
		optEng.Step(0.5)
	}
	if !reflect.DeepEqual(stA.Pos, stB.Pos) || !reflect.DeepEqual(stA.Vel, stB.Vel) {
		t.Fatal("spec-built engine diverged from option-built engine")
	}
}

// TestEngineSpecParallel: the spec selects the parallel engine with its
// engine-specific options, including pinning rebalancing off.
func TestEngineSpecParallel(t *testing.T) {
	sys, st, ff := specSystem(t)
	zero := 0
	spec := gonamd.EngineSpec{
		Engine:         "parallel",
		Workers:        2,
		ClusterM:       4,
		ClusterN:       4,
		RebalanceEvery: &zero,
	}
	eng, th, err := spec.NewEngine(sys, ff, st.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if th != nil {
		t.Fatalf("unexpected thermostat %v", th)
	}
	p, ok := eng.(*gonamd.Parallel)
	if !ok {
		t.Fatalf("engine type %T, want *Parallel", eng)
	}
	if p.Workers() != 2 {
		t.Fatalf("workers = %d, want 2", p.Workers())
	}
	if p.RebalanceEvery != 0 {
		t.Fatalf("RebalanceEvery = %d, want 0", p.RebalanceEvery)
	}
}

// TestEngineSpecTabulated: the tabulated wire fields lower to
// WithTabulatedKernels, and the spec-built engine reproduces the
// option-built tabulated trajectory bitwise.
func TestEngineSpecTabulated(t *testing.T) {
	sys, st, ff := specSystem(t)

	raw := `{
		"engine": "sequential",
		"cluster_m": 4, "cluster_n": 4,
		"tabulated": true
	}`
	var spec gonamd.EngineSpec
	if err := json.Unmarshal([]byte(raw), &spec); err != nil {
		t.Fatal(err)
	}
	stA := st.Clone()
	specEng, _, err := spec.NewEngine(sys, ff, stA)
	if err != nil {
		t.Fatal(err)
	}

	stB := st.Clone()
	optEng, err := gonamd.NewSequential(sys, ff, stB,
		gonamd.WithClusterLists(4, 4), gonamd.WithTabulatedKernels(0))
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 20; i++ {
		specEng.Step(0.5)
		optEng.Step(0.5)
	}
	if !reflect.DeepEqual(stA.Pos, stB.Pos) || !reflect.DeepEqual(stA.Vel, stB.Vel) {
		t.Fatal("spec-built tabulated engine diverged from option-built engine")
	}
}

// TestEngineSpecPrecisionMode: the two numerical modes name themselves
// distinctly — checkpoints record the string and services refuse to
// resume across a change, so tabulation must be part of it.
func TestEngineSpecPrecisionMode(t *testing.T) {
	cases := []struct {
		spec gonamd.EngineSpec
		want string
	}{
		{gonamd.EngineSpec{}, "fp64"},
		{gonamd.EngineSpec{Tabulated: true}, "fp64-tab"},
		{gonamd.EngineSpec{ClusterM: 4, ClusterN: 4, Tabulated: true}, "fp64-tab"},
	}
	for _, c := range cases {
		if got := c.spec.PrecisionMode(); got != c.want {
			t.Errorf("PrecisionMode(%+v) = %q, want %q", c.spec, got, c.want)
		}
	}
}

// TestEngineSpecRejections: invalid specs fail construction with the
// options layer's validation errors.
func TestEngineSpecRejections(t *testing.T) {
	sys, st, ff := specSystem(t)
	cases := []struct {
		name string
		spec gonamd.EngineSpec
	}{
		{"unknown engine", gonamd.EngineSpec{Engine: "quantum"}},
		{"negative pme grid", gonamd.EngineSpec{PME: &gonamd.PMESpec{GridSpacing: -1}}},
		{"unknown thermostat", gonamd.EngineSpec{Thermostat: &gonamd.ThermostatSpec{Kind: "maxwell", Temperature: 300}}},
		{"cold thermostat", gonamd.EngineSpec{Thermostat: &gonamd.ThermostatSpec{Kind: "langevin"}}},
		{"shake plus pme", gonamd.EngineSpec{HBondConstraints: true, PME: &gonamd.PMESpec{GridSpacing: 1}}},
		{"tabulated without clusters", gonamd.EngineSpec{Tabulated: true}},
		{"tabulated on the cell walk", gonamd.EngineSpec{Engine: "par", Tabulated: true}},
		{"negative table spacing", gonamd.EngineSpec{ClusterM: 4, ClusterN: 4, Tabulated: true, TableSpacing: -0.1}},
	}
	for _, c := range cases {
		if _, _, err := c.spec.NewEngine(sys, ff, st.Clone()); err == nil {
			t.Errorf("%s: construction succeeded, want error", c.name)
		}
	}
}

// TestThermostatSpecDefaults: omitted tuning parameters take the same
// defaults the CLIs use.
func TestThermostatSpecDefaults(t *testing.T) {
	th, err := (&gonamd.ThermostatSpec{Kind: "berendsen", Temperature: 300}).New()
	if err != nil {
		t.Fatal(err)
	}
	if b, ok := th.(*gonamd.Berendsen); !ok || b.Tau != 100 {
		t.Fatalf("berendsen = %+v", th)
	}
	th, err = (&gonamd.ThermostatSpec{Kind: "rescale", Temperature: 300}).New()
	if err != nil {
		t.Fatal(err)
	}
	if r, ok := th.(*gonamd.Rescale); !ok || r.Interval != 10 {
		t.Fatalf("rescale = %+v", th)
	}
	th, err = (&gonamd.ThermostatSpec{Kind: "langevin", Temperature: 300}).New()
	if err != nil {
		t.Fatal(err)
	}
	if l, ok := th.(*gonamd.Langevin); !ok || l.Gamma != 0.005 {
		t.Fatalf("langevin = %+v", th)
	}
}

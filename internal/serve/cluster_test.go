package serve

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"gonamd"
	"gonamd/internal/traj"
)

// clusterSpecs are the jobs of the cluster-kernel e2e test, all on M×N
// cluster pair lists: a parallel analytic run, and sequential analytic
// and tabulated runs.
func clusterSpecs() []JobSpec {
	base := JobSpec{
		System:          SystemSpec{Preset: "water", Side: 10, Seed: 7, Cutoff: 4.5},
		Steps:           4000,
		Dt:              0.5,
		FrameEvery:      20,
		EnergyEvery:     20,
		CheckpointEvery: 40,
	}
	par := base
	par.Name = "par-cluster"
	par.Engine = gonamd.EngineSpec{Engine: "parallel", Workers: 2, ClusterM: 4, ClusterN: 4}

	seq := base
	seq.Name = "seq-cluster"
	seq.Engine = gonamd.EngineSpec{ClusterM: 4, ClusterN: 4}

	tab := base
	tab.Name = "seq-cluster-tab"
	tab.Engine = gonamd.EngineSpec{ClusterM: 4, ClusterN: 4, Tabulated: true}
	return []JobSpec{par, seq, tab}
}

// rebaseEngine mirrors Job.rebaseListsLocked for in-process reference
// runs: after each checkpoint boundary the server re-anchors list-mode
// engines on the checkpointed positions, so the reference must too.
func rebaseEngine(eng gonamd.Engine) {
	eng.Invalidate()
	switch e := eng.(type) {
	case *gonamd.Sequential:
		e.ResetLists()
	case *gonamd.Parallel:
		e.ResetLists()
	}
}

// clusterReferenceTrajectory is referenceTrajectory plus the job
// server's checkpoint-rebase cadence, which is part of the trajectory
// contract for list-mode engines (see Job.rebaseListsLocked).
func clusterReferenceTrajectory(t *testing.T, spec JobSpec) []byte {
	t.Helper()
	if err := spec.normalize(40); err != nil {
		t.Fatal(err)
	}
	sys, st, err := spec.System.build()
	if err != nil {
		t.Fatal(err)
	}
	ff := gonamd.StandardForceField(spec.System.Cutoff)
	eng, _, err := spec.Engine.NewEngine(sys, ff, st)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := traj.NewWriter(&buf, sys.N(), sys.Box)
	if err != nil {
		t.Fatal(err)
	}
	for step := int64(1); step <= spec.Steps; step++ {
		eng.Step(spec.Dt)
		if step%spec.FrameEvery == 0 {
			if err := w.WriteFrame(step, float64(step)*spec.Dt, st.Pos); err != nil {
				t.Fatal(err)
			}
		}
		if ce := spec.CheckpointEvery; ce > 0 && step%ce == 0 {
			rebaseEngine(eng)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestClusterJobsCrashRestartResume: jobs selecting cluster lists and
// tabulated kernels are admitted over HTTP, survive a server kill, and
// resume bit-identically within their numerical mode — each final
// trajectory is byte-for-byte an uninterrupted run of the same spec.
// This is the sharpest determinism claim the cluster path makes: a
// Verlet list carries history (forces depend on where the active list
// was built), so byte-equality only holds because the server rebases
// list-mode engines on every checkpoint.
func TestClusterJobsCrashRestartResume(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{StateDir: dir, Workers: 1, TenantQuota: 2, SliceSteps: 25, CheckpointEvery: 40}

	sched1, err := NewScheduler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv1 := httptest.NewServer(NewServer(sched1))

	specs := clusterSpecs()
	ids := make([]string, len(specs))
	for i, spec := range specs {
		st := postJob(t, srv1.URL, spec)
		ids[i] = st.ID
		if st.State != StateQueued && st.State != StateRunning {
			t.Fatalf("job %s submitted in state %q", st.ID, st.State)
		}
	}

	// Let every job get a durable checkpoint, then crash the server.
	waitFor(t, "all cluster jobs past a checkpoint", func() bool {
		for _, id := range ids {
			if getStatus(t, srv1.URL, id).Step < 50 {
				return false
			}
		}
		return true
	})
	sched1.Kill()
	srv1.Close()
	for _, id := range ids {
		j, _ := sched1.Get(id)
		if st := j.Status(); terminal(st.State) {
			t.Fatalf("job %s already %s before the crash; raise Steps", id, st.State)
		}
	}

	sched2, err := NewScheduler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sched2.Stop()
	srv2 := httptest.NewServer(NewServer(sched2))
	defer srv2.Close()

	for i, id := range ids {
		waitFor(t, id+" to finish after restart", func() bool {
			return getStatus(t, srv2.URL, id).State == StateDone
		})
		st := getStatus(t, srv2.URL, id)
		if st.Resumes != 1 {
			t.Errorf("job %s Resumes = %d, want 1", id, st.Resumes)
		}
		if st.Step != specs[i].Steps {
			t.Errorf("job %s finished at step %d, want %d", id, st.Step, specs[i].Steps)
		}
		got := getTrajectory(t, srv2.URL, id)
		want := clusterReferenceTrajectory(t, specs[i])
		if !bytes.Equal(got, want) {
			t.Errorf("job %s (%s): resumed trajectory differs from uninterrupted run (%d vs %d bytes)",
				id, specs[i].Name, len(got), len(want))
		}
	}
}

// TestClusterPrecisionMismatchRejected: a checkpoint taken in one
// precision mode must not silently continue under another — the
// trajectories are not comparable across modes. A restart whose
// spec-of-record turns tabulation off (TestTabulatedMismatchRejected
// turns it on) fails the job with a note naming the two modes instead of
// resuming.
func TestClusterPrecisionMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{StateDir: dir, Workers: 1, SliceSteps: 25, CheckpointEvery: 40}

	s := newTestScheduler(t, cfg)
	spec := waterJob(4000)
	spec.Engine = gonamd.EngineSpec{ClusterM: 4, ClusterN: 4, Tabulated: true}
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	id := st.ID
	waitFor(t, "a durable checkpoint", func() bool {
		_, err := os.Stat(jobPath(dir, id, "ckpt"))
		return err == nil
	})
	s.Kill()

	// Flip the precision mode in the on-disk spec — the document of
	// record a rescan rebuilds the job from.
	raw, err := os.ReadFile(jobPath(dir, id, "spec.json"))
	if err != nil {
		t.Fatal(err)
	}
	var tampered JobSpec
	if err := json.Unmarshal(raw, &tampered); err != nil {
		t.Fatal(err)
	}
	tampered.Engine.Tabulated = false
	out, err := json.Marshal(tampered)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(jobPath(dir, id, "spec.json"), out, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := newTestScheduler(t, cfg)
	defer s2.Stop()
	got := waitState(t, s2, id, StateFailed)
	if !strings.Contains(got.Note, "precision mode") {
		t.Errorf("failure note %q does not name the precision-mode mismatch", got.Note)
	}
	if !strings.Contains(got.Note, "fp64-tab") || !strings.Contains(got.Note, "selects fp64;") {
		t.Errorf("failure note %q does not name both modes", got.Note)
	}
}

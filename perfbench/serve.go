package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"gonamd"
	"gonamd/internal/ckpt"
	"gonamd/internal/ensemble"
	"gonamd/internal/serve"
	"gonamd/internal/traj"
)

// serve-mix drives an in-process gonamdd (scheduler + HTTP server on a
// loopback listener, pool = nproc) with an open-loop Poisson schedule of
// small water MD jobs from three tenants plus one 4-replica exchange job
// per tenant. The seed draws the schedule, the tenants, and each job's
// box and random streams; the arrival rate is fixed.
const (
	serveTenants = 3
	serveSetups  = 15 // server start-ups; setup_s is their median

	// serveRate is the mean MD-job arrival rate (jobs/s): about a third
	// of the pool's capacity for this mix on the seed commit with pool = 2
	// (see METRICS.md for why not two thirds).
	serveRate = 10.0

	serveMDSteps     = 100
	serveFrameEvery  = 50
	serveEnergyEvery = 50
	serveCkptEvery   = 50
	serveMinimize    = 20
	serveSide        = 10.0 // Å, ~100 atoms
	serveCutoff      = 5.0
	serveEnsSteps    = 40

	servePoll         = 5 * time.Millisecond
	serveSlowPoll     = 20 // ticks between polls of jobs already seen running
	serveDrainTimeout = 60 * time.Second
)

// jobPlan is one scheduled submission.
type jobPlan struct {
	due    time.Duration // offset from the schedule start
	tenant string
	spec   serve.JobSpec
}

func mdJobSpec(rng *rand.Rand, k int) serve.JobSpec {
	seed := rng.Uint64()
	return serve.JobSpec{
		Name:   fmt.Sprintf("md-%d", k),
		System: serve.SystemSpec{Preset: "water", Side: serveSide, Seed: seed, Cutoff: serveCutoff},
		Engine: gonamd.EngineSpec{Thermostat: &gonamd.ThermostatSpec{Kind: "langevin", Temperature: 300, Seed: seed}},
		Steps:  serveMDSteps, Dt: 0.5, Minimize: serveMinimize,
		FrameEvery: serveFrameEvery, EnergyEvery: serveEnergyEvery, CheckpointEvery: serveCkptEvery,
	}
}

func ensembleJobSpec(rng *rand.Rand, tenant int) serve.JobSpec {
	return serve.JobSpec{
		Name:     fmt.Sprintf("rex-%d", tenant),
		System:   serve.SystemSpec{Preset: "water", Side: serveSide, Seed: rng.Uint64(), Cutoff: serveCutoff},
		Ensemble: &serve.EnsembleSpec{Replicas: 4, TMin: 300, TMax: 330, ExchangeEvery: 20, Seed: rng.Uint64()},
		Steps:    serveEnsSteps, Dt: 0.5, Minimize: serveMinimize,
		EnergyEvery: serveEnergyEvery, CheckpointEvery: serveCkptEvery,
	}
}

// schedule draws the open-loop arrivals for a window of the given
// length: a Poisson process at serveRate conditioned on its expected
// arrival count, that is, round(serveRate·window) arrival times drawn
// uniformly over the window. Fixing the count keeps the offered load the
// same for every seed, so seeds vary where the bursts fall, not how much
// work arrives.
func schedule(seed uint64, window time.Duration) []jobPlan {
	rng := rand.New(rand.NewSource(int64(seed)))
	n := int(math.Round(serveRate * window.Seconds()))
	var plans []jobPlan
	for k := 0; k < n; k++ {
		due := time.Duration(rng.Float64() * float64(window))
		plans = append(plans, jobPlan{due: due, tenant: fmt.Sprintf("t%d", rng.Intn(serveTenants)), spec: mdJobSpec(rng, k)})
	}
	for i := 0; i < serveTenants; i++ {
		due := time.Duration(rng.Float64() * 0.5 * float64(window))
		plans = append(plans, jobPlan{due: due, tenant: fmt.Sprintf("t%d", i), spec: ensembleJobSpec(rng, i)})
	}
	sort.SliceStable(plans, func(a, b int) bool { return plans[a].due < plans[b].due })
	return plans
}

// gonamdd is one in-process server.
type gonamdd struct {
	dir   string
	sched *serve.Scheduler
	http  *http.Server
	base  string
	done  chan struct{} // closed when Serve returns
}

func startServer(root string, workers int) (*gonamdd, error) {
	dir, err := os.MkdirTemp(root, "serve-")
	if err != nil {
		return nil, err
	}
	sched, err := serve.NewScheduler(serve.Config{StateDir: dir, Workers: workers})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	g := &gonamdd{dir: dir, sched: sched, http: &http.Server{Handler: serve.NewServer(sched)},
		base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(g.done)
		_ = g.http.Serve(ln) // returns ErrServerClosed on shutdown
	}()
	return g, nil
}

// stop shuts the HTTP server and the scheduler down, waits for both, and
// removes the state directory.
func (g *gonamdd) stop() error {
	err := g.http.Shutdown(context.Background())
	<-g.done
	if serr := g.sched.Stop(); err == nil {
		err = serr
	}
	if rerr := os.RemoveAll(g.dir); err == nil {
		err = rerr
	}
	return err
}

// client is the load generator's HTTP side: at most nproc connections,
// kept alive across requests.
type client struct {
	http *http.Client
	base string
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
	return &client{http: &http.Client{Transport: tr}, base: base}
}

func (c *client) do(method, path string, body []byte, hdr map[string]string, out any) error {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	if b, ok := out.(*[]byte); ok {
		*b = data
		return nil
	}
	return json.Unmarshal(data, out)
}

// jobRun is what the load generator observed of one job.
type jobRun struct {
	plan      jobPlan
	due       time.Time
	id        string
	submitMs  float64
	submitErr error

	started    time.Time // first poll showing the job past the queue
	firstFrame time.Time // first poll showing a trajectory frame
	final      *serve.JobStatus
}

func (r *jobRun) isMD() bool { return r.plan.spec.Ensemble == nil }

func runServeMix(cfg runConfig, rep *report) error {
	root := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return err
	}
	// Set-up is a fresh server's cold start up to its first dispatched
	// job: scheduler and server construction, then a one-step job
	// submitted and run to completion (the server's finished_at).
	var g *gonamdd
	var setups []float64
	warm := rand.New(rand.NewSource(int64(cfg.seed)))
	for i := 0; i < serveSetups; i++ {
		if g != nil {
			if err := g.stop(); err != nil {
				return err
			}
		}
		t := time.Now()
		var err error
		if g, err = startServer(root, cfg.nproc); err != nil {
			return err
		}
		spec := mdJobSpec(warm, -1)
		spec.Steps, spec.Minimize, spec.FrameEvery = 1, 0, 0
		st, err := serveOne(newClient(g.base, 1), spec)
		rep.check(err == nil, fmt.Sprintf("set-up job: %v", err))
		if err != nil {
			return err
		}
		setups = append(setups, st.FinishedAt.Sub(t).Seconds())
	}
	rep.set("setup_s", median(setups))

	c := newClient(g.base, cfg.nproc)
	runs, lateMax, pollMs, pollErrs, polls := openLoop(c, schedule(cfg.seed, cfg.budget(1)))
	rep.set("loadgen.late_ms_max", lateMax)
	rep.set("serve.poll_ms", pollMs)
	rep.attempted += int64(polls)
	rep.failed += int64(pollErrs)

	checkJobs(c, runs, rep)
	serveMetrics(runs, rep)
	if cfg.trace {
		if err := probeServeLayers(c, g.dir, runs, rep); err != nil {
			return err
		}
	}
	return g.stop()
}

// openLoop submits every plan at its due time from one goroutine while a
// second polls the outstanding jobs' status, and returns once every job
// is terminal (or the drain timeout passed). It returns the generator's
// worst lateness, the mean poll period (the first-frame resolution),
// and the poll request and error counts.
func openLoop(c *client, plans []jobPlan) (runs []*jobRun, lateMaxMs, pollMs float64, pollErrs, polls int) {
	runs = make([]*jobRun, len(plans))
	var mu sync.Mutex
	submitted := 0 // runs[:submitted] have been submitted
	start := time.Now()
	for i, p := range plans {
		runs[i] = &jobRun{plan: p, due: start.Add(p.due)}
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, r := range runs {
			time.Sleep(time.Until(r.due))
			if late := ms(time.Since(r.due)); late > lateMaxMs {
				lateMaxMs = late
			}
			body, err := json.Marshal(r.plan.spec)
			if err != nil {
				panic(err) // JobSpec always marshals
			}
			var st serve.JobStatus
			t := time.Now()
			r.submitErr = c.do("POST", "/jobs", body, map[string]string{"X-Tenant": r.plan.tenant}, &st)
			r.submitMs = ms(time.Since(t))
			r.id = st.ID
			mu.Lock()
			submitted = i + 1
			mu.Unlock()
		}
	}()

	deadline := start.Add(plans[len(plans)-1].due + serveDrainTimeout)
	var cycles int
	for {
		tick := time.Now()
		mu.Lock()
		n := submitted
		mu.Unlock()
		open := 0
		for _, r := range runs[:n] {
			if r.final != nil || r.submitErr != nil {
				continue
			}
			open++
			// Jobs still owing a first observation are polled every tick;
			// the rest only every serveSlowPoll ticks, to notice when they
			// finish (their end time is the server's own timestamp), so
			// polling load tracks the jobs being timed, not all in flight.
			waiting := r.started.IsZero() || (r.isMD() && r.firstFrame.IsZero())
			if !waiting && cycles%serveSlowPoll != 0 {
				continue
			}
			var st serve.JobStatus
			polls++
			if err := c.do("GET", "/jobs/"+r.id, nil, nil, &st); err != nil {
				pollErrs++
				continue
			}
			now := time.Now()
			if r.started.IsZero() && (st.State != serve.StateQueued || st.Step > 0) {
				r.started = now
			}
			if r.firstFrame.IsZero() && st.Frames > 0 {
				r.firstFrame = now
			}
			if st.State == serve.StateDone || st.State == serve.StateFailed || st.State == serve.StateCanceled {
				r.final = &st
			}
		}
		cycles++
		if (n == len(runs) && open == 0) || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Until(tick.Add(servePoll)))
	}
	wg.Wait()
	return runs, lateMaxMs, ms(time.Since(start)) / float64(cycles), pollErrs, polls
}

// checkJobs counts one operation per job: it fails unless the job was
// accepted and reached done, and, for MD jobs, wrote steps/frame_every
// frames that the trajectory endpoint serves and traj.Reader decodes.
func checkJobs(c *client, runs []*jobRun, rep *report) {
	for _, r := range runs {
		ok := r.submitErr == nil && r.final != nil && r.final.State == serve.StateDone
		what := fmt.Sprintf("job %s (%s)", r.id, r.plan.spec.Name)
		switch {
		case r.submitErr != nil:
			what += ": " + r.submitErr.Error()
		case r.final == nil:
			what += ": not finished before the drain timeout"
		case r.final.State != serve.StateDone:
			what += ": " + r.final.State + " " + r.final.Note
		}
		if ok && r.isMD() {
			want := int(r.plan.spec.Steps / r.plan.spec.FrameEvery)
			frames, err := trajectoryFrames(c, r.id)
			if r.final.Frames != want || frames != want || err != nil {
				ok = false
				what += fmt.Sprintf(": %d frames reported, %d decoded (err %v), want %d", r.final.Frames, frames, err, want)
			}
		}
		rep.check(ok, what)
	}
}

func trajectoryFrames(c *client, id string) (int, error) {
	var blob []byte
	if err := c.do("GET", "/jobs/"+id+"/trajectory", nil, nil, &blob); err != nil {
		return 0, err
	}
	rd, err := traj.NewReader(bytes.NewReader(blob))
	if err != nil {
		return 0, err
	}
	frames, err := rd.ReadAll()
	return len(frames), err
}

// serveMetrics derives the latency and throughput figures. Latencies run
// from each job's scheduled arrival, so generator or server stalls count
// against every job they delay.
func serveMetrics(runs []*jobRun, rep *report) {
	var firstFrame, jobS, submit, queueWait []float64
	var steps int64
	var first, last time.Time
	for _, r := range runs {
		if r.submitErr != nil {
			continue
		}
		submit = append(submit, r.submitMs)
		if first.IsZero() || r.due.Before(first) {
			first = r.due
		}
		if !r.started.IsZero() {
			queueWait = append(queueWait, ms(r.started.Sub(r.due)))
		}
		if r.isMD() && !r.firstFrame.IsZero() {
			firstFrame = append(firstFrame, ms(r.firstFrame.Sub(r.due)))
		}
		if r.final == nil || r.final.State != serve.StateDone {
			continue
		}
		jobS = append(jobS, r.final.FinishedAt.Sub(r.due).Seconds())
		if r.final.FinishedAt.After(last) {
			last = r.final.FinishedAt
		}
		if e := r.plan.spec.Ensemble; e != nil {
			steps += r.plan.spec.Steps * int64(e.Replicas)
		} else {
			steps += r.plan.spec.Steps
		}
	}
	rep.set("latency_ms_p50", median(firstFrame))
	rep.set("first_frame_ms_p50", median(firstFrame))
	rep.set("first_frame_ms_p90", percentile(firstFrame, 0.9))
	rep.set("latency_samples", float64(len(firstFrame)))
	rep.set("job_s_p50", median(jobS))
	rep.set("job_s_p90", percentile(jobS, 0.9))
	agg := float64(steps) / last.Sub(first).Seconds()
	rep.set("throughput_per_s", agg)
	rep.set("agg_steps_per_s", agg)
	rep.set("serve.submit_ms_p50", median(submit))
	rep.set("serve.submit_ms_p90", percentile(submit, 0.9))
	rep.set("serve.queue_wait_ms_p50", median(queueWait))
	rep.set("serve.queue_wait_ms_p90", percentile(queueWait, 0.9))
	var dropped int64
	for _, r := range runs {
		if r.final != nil {
			dropped += r.final.DroppedEvents
		}
	}
	rep.set("serve.dropped_events", float64(dropped))
}

// probeSamples is how many of the mix's MD specs the probes replay.
const probeSamples = 5

// probeServeLayers runs after the open loop has drained, so the measured
// section is the same as in an untraced run and trace.overhead_frac is 0
// by construction. It replays some of the mix's MD specs one at a time,
// once through the now idle server (no queueing: the server's own
// submitted_at → finished_at) and once on a bare engine (no scheduler,
// no HTTP, no I/O), and times the storage layers on job-sized data in
// the server's state directory.
func probeServeLayers(c *client, dir string, runs []*jobRun, rep *report) error {
	rep.set("trace.overhead_frac", 0)
	var setupMs []float64
	var bareTime, servedTime time.Duration
	var lastSys *gonamd.System
	var lastSt *gonamd.State
	n := 0
	for _, r := range runs {
		if !r.isMD() || n == probeSamples {
			continue
		}
		n++
		spec := r.plan.spec
		js, err := serveOne(c, spec)
		rep.check(err == nil, fmt.Sprintf("replaying %s through the server: %v", spec.Name, err))
		if err != nil {
			return err
		}
		servedTime += js.FinishedAt.Sub(js.SubmittedAt)

		t := time.Now()
		sys, st, err := gonamd.BuildSystem(gonamd.WaterBoxSpec(spec.System.Side, spec.System.Seed))
		if err != nil {
			return err
		}
		ff := gonamd.StandardForceField(spec.System.Cutoff)
		mz, err := gonamd.NewSequential(sys, ff, st)
		if err != nil {
			return err
		}
		mz.Minimize(spec.Minimize, 0.2)
		eng, _, err := spec.Engine.NewEngine(sys, ff, st)
		if err != nil {
			return err
		}
		setupMs = append(setupMs, ms(time.Since(t)))
		eng.Run(int(spec.Steps), spec.Dt)
		bareTime += time.Since(t)
		lastSys, lastSt = sys, st
	}
	if n == 0 {
		return fmt.Errorf("the mix has no MD job to replay")
	}
	rep.set("serve.job_setup_ms", median(setupMs))
	// Same steps on both sides, so the rate ratio is the time ratio.
	rep.set("serve.overhead_frac", 1-bareTime.Seconds()/servedTime.Seconds())

	snap := &ckpt.JobState{ID: "probe", SpecJSON: []byte("{}"), Step: serveCkptEvery, Precision: "fp64",
		Pos: lastSt.Pos, Vel: lastSt.Vel}
	path := filepath.Join(dir, "probe.ckpt")
	var saveErr error
	rep.set("ckpt.save_ms", medianOf(func() {
		if err := ckpt.SaveJobFile(path, snap); err != nil {
			saveErr = err
		}
	}))
	if saveErr != nil {
		return saveErr
	}
	frameUs, err := trajFrameUs(filepath.Join(dir, "probe.traj"), lastSys, lastSt)
	if err != nil {
		return err
	}
	rep.set("traj.frame_us", frameUs)

	rate, err := replicaStepsPerSec(runs)
	if err != nil {
		return err
	}
	rep.set("ensemble.replica_steps_per_s", rate)
	return nil
}

// serveOne submits spec to an idle server, waits for it to finish, and
// returns its final status.
func serveOne(c *client, spec serve.JobSpec) (serve.JobStatus, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return serve.JobStatus{}, err
	}
	var st serve.JobStatus
	if err := c.do("POST", "/jobs", body, map[string]string{"X-Tenant": "probe"}, &st); err != nil {
		return st, err
	}
	deadline := time.Now().Add(serveDrainTimeout)
	for st.State != serve.StateDone {
		if st.State == serve.StateFailed || st.State == serve.StateCanceled || time.Now().After(deadline) {
			return st, fmt.Errorf("job %s ended %s %s", st.ID, st.State, st.Note)
		}
		time.Sleep(servePoll)
		if err := c.do("GET", "/jobs/"+st.ID, nil, nil, &st); err != nil {
			return st, err
		}
	}
	return st, nil
}

// trajFrameUs times WriteFrame on a job-sized system, flushed to a file.
func trajFrameUs(path string, sys *gonamd.System, st *gonamd.State) (float64, error) {
	const frames = 200
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	w, err := traj.NewWriter(f, sys.N(), sys.Box)
	if err != nil {
		return 0, err
	}
	t := time.Now()
	for i := 0; i < frames; i++ {
		if err := w.WriteFrame(int64(i), float64(i), st.Pos); err != nil {
			return 0, err
		}
	}
	if err := w.Flush(); err != nil {
		return 0, err
	}
	us := float64(time.Since(t).Microseconds()) / frames
	return us, f.Close()
}

// replicaStepsPerSec runs the mix's first ensemble spec on a bare
// ensemble (the same configuration the job server derives) and returns
// replica-steps per second.
func replicaStepsPerSec(runs []*jobRun) (float64, error) {
	const steps = 100
	for _, r := range runs {
		spec := r.plan.spec
		e := spec.Ensemble
		if e == nil {
			continue
		}
		sys, st, err := gonamd.BuildSystem(gonamd.WaterBoxSpec(spec.System.Side, spec.System.Seed))
		if err != nil {
			return 0, err
		}
		ff := gonamd.StandardForceField(spec.System.Cutoff)
		ens, err := ensemble.New(sys, ff, st, ensemble.Config{
			Temperatures:  gonamd.GeometricLadder(e.TMin, e.TMax, e.Replicas),
			Dt:            spec.Dt,
			ExchangeEvery: e.ExchangeEvery,
			Seed:          e.Seed,
			Workers:       1,
			EngineWorkers: 1,
		})
		if err != nil {
			return 0, err
		}
		t := time.Now()
		if err := ens.Run(steps); err != nil {
			return 0, err
		}
		return float64(steps*e.Replicas) / time.Since(t).Seconds(), nil
	}
	return 0, fmt.Errorf("the mix has no ensemble job")
}

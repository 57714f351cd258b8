package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"sops/internal/amoebot"
	"sops/internal/config"
	"sops/internal/experiment"
	"sops/internal/kmc"
	"sops/internal/rule"
	"sops/internal/runner"
)

// layerProbe replays sampled tasks layer by layer, with a span around each
// call into a layer's public functions, and accumulates the per-layer
// metrics. A replay runs the task's exact inputs (its point, budget,
// snapshot cadence and seed), so it repeats the trajectory the measured
// run simulated; its final state is checked against that run's.
type layerProbe struct {
	tr *tracer

	kmcRun, kmcEvents, kmcSteps, kmcMoves float64
	kmcBuild                              samples
	kmcTasks                              int

	chainRun, chainSteps, chainAccepted float64
	amoRun, amoActs, amoMoves           float64

	ruleCompile samples
	ruleUnits   int
	boundary    samples
	taskUs      samples
	overheadUs  samples

	normalize    samples
	busy         []float64
	journalBytes []float64

	serve serveLayers

	attempted, failed int
	problems          []string
}

// serveLayers holds the serve, frame and client accumulators of the
// serve-jobs workload.
type serveLayers struct {
	submit, queueWait, simulate, resultFetch, cancel, hit samples
	jobs, cancelMissed, tasksRun                          int
	frameJobs, frames, keyframes, frameBytes              int
	decode                                                samples // per frame, µs
}

func newLayerProbe(tr *tracer) *layerProbe { return &layerProbe{tr: tr} }

func (lp *layerProbe) check(bad ...string) {
	lp.attempted++
	if len(bad) > 0 {
		lp.failed++
		if len(lp.problems) < 10 {
			lp.problems = append(lp.problems, bad[0])
		}
	}
}

// unit replays every task of a measured cold unit and records the
// experiment layer's busy ratio and journal size for it.
func (lp *layerProbe) unit(u unit, dir string, r *unitRun, workers int, group int64) {
	taskTime := lp.replay(group, r.tasks, u.spec.Iterations, u.spec.SnapshotEvery)
	lp.busy = append(lp.busy, float64(taskTime)/(float64(workers)*float64(r.wall)))
	if fi, err := os.Stat(filepath.Join(dir, experiment.JournalFile)); err == nil {
		lp.journalBytes = append(lp.journalBytes, float64(fi.Size()))
	}
}

// replay runs each task twice: once through Arena.Compress, which is what
// the scenarios call, and once decomposed into Arena.Rule,
// Arena.Sequential, Sequential.Run per snapshot interval and the final
// Perimeter/HoleFree (amoebot tasks: the world, scheduler and
// RunActivations). Each replay keeps one arena for all the tasks, as one
// experiment worker does. It returns the summed Arena.Compress time.
func (lp *layerProbe) replay(group int64, tasks []*taskObs, iters, every uint64) time.Duration {
	whole, parts := runner.NewArena(), runner.NewArena()
	var taskTime time.Duration
	// seen marks rules and engines the decomposing arena already holds:
	// only their first use compiles or builds.
	seen := make(map[string]bool)
	for _, t := range tasks {
		opts := runner.Options{
			N:             t.point.N,
			Lambda:        t.point.Lambda,
			Iterations:    iters,
			Seed:          t.seed,
			Start:         runner.StartShape(t.point.Start),
			Engine:        t.point.Engine,
			Rule:          t.point.Rule,
			SnapshotEvery: every,
		}
		sid := lp.tr.begin("runner.Arena.Compress", group, -1)
		res, err := whole.Compress(opts)
		d := lp.tr.end(sid)
		if err != nil {
			lp.check(fmt.Sprintf("%s: replay: %v", t.point, err))
			continue
		}
		taskTime += d
		lp.taskUs = append(lp.taskUs, float64(d)/float64(time.Microsecond))
		lp.check(sameFinal(t, res.Perimeter, res.Edges)...)

		run, err := lp.decomposed(opts, parts, group, seen, t)
		if err != nil {
			lp.check(fmt.Sprintf("%s: decomposed replay: %v", t.point, err))
			continue
		}
		lp.overheadUs = append(lp.overheadUs, float64(d-run)/float64(time.Microsecond))
	}
	lp.ruleUnits++
	return taskTime
}

// sameFinal checks a replay's final state against the measured task's
// last frame.
func sameFinal(t *taskObs, perimeter, edges int) []string {
	if perimeter != t.last.Perimeter || edges != t.last.Edges {
		return []string{fmt.Sprintf("%s: replay ends at perimeter %d, edges %d; measured run at %d, %d",
			t.point, perimeter, edges, t.last.Perimeter, t.last.Edges)}
	}
	return nil
}

// decomposed replays one task layer by layer and returns the time spent
// in the engine's run calls.
func (lp *layerProbe) decomposed(opts runner.Options, a *runner.Arena, group int64, seen map[string]bool, t *taskObs) (time.Duration, error) {
	task := lp.tr.begin("task", group, -1)
	defer lp.tr.end(task)
	sid := lp.tr.begin("rule.Arena.Rule", group, task)
	ru, err := a.Rule(opts.Rule, opts.Lambda, 0)
	d := lp.tr.end(sid)
	if err != nil {
		return 0, err
	}
	if key := fmt.Sprintf("rule %s %g", opts.Rule, opts.Lambda); !seen[key] {
		seen[key] = true
		lp.ruleCompile = append(lp.ruleCompile, float64(d)/float64(time.Microsecond))
	}
	chunks := func(run func(uint64)) time.Duration {
		var total time.Duration
		for done := uint64(0); done < opts.Iterations; {
			k := min(opts.SnapshotEvery, opts.Iterations-done)
			id := lp.tr.begin("engine.Run", group, task)
			run(k)
			total += lp.tr.end(id)
			done += k
		}
		return total
	}
	if opts.Engine == runner.EngineAmoebot {
		return lp.amoebot(opts, ru, group, task, chunks, t)
	}
	sid = lp.tr.begin("engine.Arena.Sequential", group, task)
	seq, err := a.Sequential(opts.Engine, opts.Start, opts.N, ru, opts.Seed)
	build := lp.tr.end(sid)
	if err != nil {
		return 0, err
	}
	run := chunks(func(k uint64) { seq.Run(k) })
	sid = lp.tr.begin("grid.Perimeter+HoleFree", group, task)
	perimeter, holeFree := seq.Perimeter(), seq.HoleFree()
	lp.boundary = append(lp.boundary, float64(lp.tr.end(sid))/float64(time.Microsecond))

	lp.check(finalChecks(t, seq.Steps(), opts.Iterations, seq.Config(), perimeter, seq.Edges(), holeFree)...)
	switch c := seq.(type) {
	case *kmc.Chain:
		lp.kmcRun += float64(run)
		lp.kmcEvents += float64(c.Events())
		lp.kmcSteps += float64(c.Steps())
		lp.kmcMoves += float64(c.Accepted())
		if !seen["engine kmc"] {
			seen["engine kmc"] = true
			lp.kmcBuild = append(lp.kmcBuild, float64(build)/float64(time.Microsecond))
		}
		lp.kmcTasks++
	default:
		lp.chainRun += float64(run)
		lp.chainSteps += float64(seq.Steps())
		lp.chainAccepted += float64(seq.Accepted())
	}
	return run, nil
}

// amoebot replays a distributed task the way the runner drives it: a
// Metropolis protocol over a world under a Poisson-clock scheduler.
func (lp *layerProbe) amoebot(opts runner.Options, ru *rule.Rule, group int64, task int, chunks func(func(uint64)) time.Duration, t *taskObs) (time.Duration, error) {
	sid := lp.tr.begin("engine.amoebot.NewWorld", group, task)
	start, err := runner.NewStartConfig(opts.Start, opts.N, opts.Seed)
	if err != nil {
		return 0, err
	}
	proto, err := amoebot.NewMetropolis(ru)
	if err != nil {
		return 0, err
	}
	w, err := amoebot.NewWorld(start)
	if err != nil {
		return 0, err
	}
	if !ru.Stateless() {
		w.SeedPayload(ru.States(), opts.Seed)
	}
	s := amoebot.NewPoissonScheduler(w, proto, opts.Seed)
	lp.tr.end(sid)
	run := chunks(s.RunActivations)
	sid = lp.tr.begin("grid.Perimeter+HoleFree", group, task)
	cfg := w.Config()
	perimeter, holeFree := cfg.Perimeter(), !cfg.HasHoles()
	lp.boundary = append(lp.boundary, float64(lp.tr.end(sid))/float64(time.Microsecond))
	lp.check(finalChecks(t, w.Activations(), opts.Iterations, cfg, perimeter, cfg.Edges(), holeFree)...)
	lp.amoRun += float64(run)
	lp.amoActs += float64(w.Activations())
	lp.amoMoves += float64(w.Moves())
	return run, nil
}

// finalChecks verifies a replayed run: it spent its budget exactly, holds
// n particles in one hole-free component, and ends where the measured run
// ended.
func finalChecks(t *taskObs, steps, budget uint64, cfg *config.Config, perimeter, edges int, holeFree bool) []string {
	var bad []string
	if steps != budget {
		bad = append(bad, fmt.Sprintf("%s: replay ran %d steps, budget %d", t.point, steps, budget))
	}
	if cfg.N() != t.point.N || !cfg.Connected() || !holeFree {
		bad = append(bad, fmt.Sprintf("%s: replay ends with %d particles, connected %v, hole-free %v",
			t.point, cfg.N(), cfg.Connected(), holeFree))
	}
	return append(bad, sameFinal(t, perimeter, edges)...)
}

// emit adds every per-layer metric. A layer the workload never reached
// reports 0.
func (lp *layerProbe) emit(r *report, base, traced *pass) {
	r.add("kmc.ns_per_event", ratio(lp.kmcRun, lp.kmcEvents), "ns", int(lp.kmcEvents))
	r.add("kmc.events", ratio(lp.kmcEvents, float64(lp.kmcTasks)), "count", lp.kmcTasks)
	r.add("kmc.mean_hold", ratio(lp.kmcSteps, lp.kmcEvents), "steps", int(lp.kmcEvents))
	r.add("kmc.moves_per_event", ratio(lp.kmcMoves, lp.kmcEvents), "ratio", int(lp.kmcEvents))
	r.add("kmc.build_us", medianOr0(lp.kmcBuild), "us", len(lp.kmcBuild))
	r.add("chain.ns_per_step", ratio(lp.chainRun, lp.chainSteps), "ns", int(lp.chainSteps))
	r.add("chain.accept_ratio", ratio(lp.chainAccepted, lp.chainSteps), "ratio", int(lp.chainSteps))
	r.add("amoebot.ns_per_activation", ratio(lp.amoRun, lp.amoActs), "ns", int(lp.amoActs))
	r.add("amoebot.moves_per_activation", ratio(lp.amoMoves, lp.amoActs), "ratio", int(lp.amoActs))
	r.add("rule.compile_us", medianOr0(lp.ruleCompile), "us", len(lp.ruleCompile))
	r.add("rule.compiles", ratio(float64(len(lp.ruleCompile)), float64(lp.ruleUnits)), "count", lp.ruleUnits)
	r.add("grid.boundary_us", medianOr0(lp.boundary), "us", len(lp.boundary))
	r.add("runner.task_us", medianOr0(lp.taskUs), "us", len(lp.taskUs))
	r.add("runner.overhead_us", medianOr0(lp.overheadUs), "us", len(lp.overheadUs))
	r.add("experiment.normalize_us", medianOr0(lp.normalize), "us", len(lp.normalize))
	r.add("experiment.busy_ratio", mean(lp.busy), "ratio", len(lp.busy))
	r.add("experiment.journal_bytes", mean(lp.journalBytes), "bytes", len(lp.journalBytes))

	s := &lp.serve
	r.add("serve.submit_p50_ms", medianOr0(s.submit), "ms", len(s.submit))
	r.add("serve.queue_wait_p50_ms", medianOr0(s.queueWait), "ms", len(s.queueWait))
	r.add("serve.simulate_p50_ms", medianOr0(s.simulate), "ms", len(s.simulate))
	r.add("serve.result_fetch_p50_ms", medianOr0(s.resultFetch), "ms", len(s.resultFetch))
	r.add("serve.hit_p50_ms", medianOr0(s.hit), "ms", len(s.hit))
	r.add("serve.hit_ratio", ratio(float64(len(s.hit)), float64(s.jobs)), "ratio", s.jobs)
	r.add("serve.cancel_p50_ms", medianOr0(s.cancel), "ms", len(s.cancel))
	r.add("serve.cancel_missed", float64(s.cancelMissed), "count", len(s.cancel)+s.cancelMissed)
	r.add("serve.tasks_run", ratio(float64(s.tasksRun), float64(s.jobs)), "count", s.jobs)
	r.add("frame.frames_per_job", ratio(float64(s.frames), float64(s.frameJobs)), "count", s.frameJobs)
	r.add("frame.bytes_per_frame", ratio(float64(s.frameBytes), float64(s.frames)), "bytes", s.frames)
	r.add("frame.keyframe_share", ratio(float64(s.keyframes), float64(s.frames)), "ratio", s.frames)
	r.add("client.decode_us_per_frame", medianOr0(s.decode), "us", len(s.decode))

	// Tracing overhead: the untraced pass's throughput over the traced
	// pass's (probes run after the timed stretch); 1 means tracing cost
	// nothing measurable.
	baseRate, _ := midMean(base.stepRates)
	tracedRate, _ := midMean(traced.stepRates)
	r.add("trace.overhead_ratio", ratio(baseRate, tracedRate), "ratio", len(traced.stepRates))
}

// medianOr0 is the median of xs, or 0 for none.
func medianOr0(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m, _ := median(xs)
	return m
}

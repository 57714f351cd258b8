package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"sops/internal/experiment"
	"sops/internal/metrics"
	"sops/internal/runner"
)

// unit is one submission of an experiment workload: a sweep run through
// experiment.Run with its own journal directory.
type unit struct {
	spec experiment.Spec
	// repeat is the index, within the cycle, of the cold unit this one
	// resubmits (a journal replay, the experiment engine's cache hit);
	// -1 for a cold unit.
	repeat int
	// compress marks λ=4 line starts, whose final α must fall below the
	// start's.
	compress bool
}

// expWorkload is a workload of sweeps submitted back to back in one
// closed loop, each with Workers = nproc.
type expWorkload struct {
	name string
	// cycle returns the units of cycle c. A cycle holds a fixed mix; the
	// seed picks the simulation seeds and the order.
	cycle func(seed uint64, c, workers int, tiny bool) []unit
	// probeEvery: in the traced pass, one cold unit in probeEvery is
	// replayed layer by layer.
	probeEvery int
	// warmupDiv divides the budgets of the set-up's warm-up units.
	warmupDiv uint64
	// rerun re-executes the first cycle's cold units after the timed
	// stretch and requires byte-identical results files.
	rerun bool
}

// mix derives a well-spread 64-bit value from its arguments (SplitMix64).
func mix(vals ...uint64) uint64 {
	var z uint64 = 0x9e3779b97f4a7c15
	for _, v := range vals {
		z ^= v
		z += 0x9e3779b97f4a7c15
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
	}
	return z
}

// withRepeats shuffles the cold units by the seed and inserts a repeat of
// an earlier cold unit after every third one, so one submission in four is
// a cache hit.
func withRepeats(rng *rand.Rand, cold []unit) []unit {
	rng.Shuffle(len(cold), func(i, j int) { cold[i], cold[j] = cold[j], cold[i] })
	var out []unit
	var coldIdx []int
	for _, u := range cold {
		coldIdx = append(coldIdx, len(out))
		out = append(out, u)
		if len(coldIdx)%3 == 0 {
			target := coldIdx[rng.IntN(len(coldIdx))]
			r := out[target]
			r.repeat = target
			out = append(out, r)
		}
	}
	return out
}

var kmcLong = expWorkload{
	name:       "kmc-long",
	probeEvery: 3,
	warmupDiv:  10,
	cycle: func(seed uint64, c, workers int, tiny bool) []unit {
		rng := rand.New(rand.NewPCG(seed, uint64(c)))
		n, lineSteps, spiralSteps := 1000, uint64(20_000_000), uint64(2_500_000)
		if tiny {
			n, lineSteps, spiralSteps = 60, 40_000, 10_000
		}
		var cold []unit
		for i := 0; i < 6; i++ {
			sp := experiment.Spec{
				Scenario: "compress",
				Sizes:    []int{n},
				Engines:  []string{experiment.EngineKMC},
				Reps:     workers,
				Seed:     mix(seed, uint64(c), uint64(i)),
			}
			u := unit{repeat: -1}
			// Four line runs to two spiral runs: every percentile then
			// falls inside one kind's times, not on the gap between the
			// two, where it would rest on their extremes.
			if i%3 != 2 {
				// Compressing from the paper's line start.
				sp.Lambdas, sp.Starts, sp.Iterations = []float64{4}, []string{"line"}, lineSteps
				u.compress = true
			} else {
				// Expanding from a compact spiral: the occupied window grows.
				sp.Lambdas, sp.Starts, sp.Iterations = []float64{2}, []string{"spiral"}, spiralSteps
			}
			sp.SnapshotEvery = sp.Iterations / 8
			u.spec = sp
			cold = append(cold, u)
		}
		return withRepeats(rng, cold)
	},
}

var sweepShort = expWorkload{
	name:       "sweep-short",
	probeEvery: 4,
	warmupDiv:  10,
	rerun:      true,
	cycle: func(seed uint64, c, workers int, tiny bool) []unit {
		rng := rand.New(rand.NewPCG(seed, uint64(c)))
		type point struct {
			scenario, engine string
			n                int
		}
		points := []point{
			{"compress", experiment.EngineChain, 20},
			{"compress", experiment.EngineChain, 60},
			{"align", experiment.EngineChain, 40},
			{"align", experiment.EngineChain, 60},
			{"forage", experiment.EngineChain, 30},
			{"forage", experiment.EngineChain, 50},
			{"compress", experiment.EngineAmoebot, 20},
			{"align", experiment.EngineAmoebot, 20},
			{"forage", experiment.EngineAmoebot, 24},
			{"compress", experiment.EngineKMC, 40},
			{"align", experiment.EngineKMC, 40},
			{"forage", experiment.EngineKMC, 40},
		}
		var cold []unit
		for i, p := range points {
			n := p.n
			if tiny {
				n = max(8, n/3)
			}
			// The paper's 200·n² budget.
			iters := uint64(200 * n * n)
			cold = append(cold, unit{repeat: -1, spec: experiment.Spec{
				Scenario:      p.scenario,
				Sizes:         []int{n},
				Engines:       []string{p.engine},
				Reps:          2 * workers,
				Iterations:    iters,
				SnapshotEvery: iters / 4,
				Seed:          mix(seed, uint64(c), uint64(i)),
			}})
		}
		return withRepeats(rng, cold)
	},
}

// taskObs is what the benchmark observed of one task of a unit.
type taskObs struct {
	point    experiment.Point
	seed     uint64
	frames   int
	first    time.Duration // unit submit → first snapshot frame
	result   time.Duration // unit submit → task result
	last     runner.Snapshot
	backstep bool // a frame's iteration did not exceed the previous one
	metrics  experiment.Metrics
	err      error
	done     bool
}

// unitRun is one executed unit.
type unitRun struct {
	wall    time.Duration
	res     *experiment.Result
	tasks   []*taskObs
	results []byte
}

// runUnit executes one unit through experiment.Run, observing every task's
// frames and result.
func runUnit(ctx context.Context, u unit, dir string, workers int) (*unitRun, error) {
	var mu sync.Mutex
	byKey := make(map[[2]int]*taskObs)
	var order []*taskObs
	obs := func(t experiment.Task) *taskObs {
		k := [2]int{t.PointIndex, t.Rep}
		o := byKey[k]
		if o == nil {
			o = &taskObs{point: t.Point, seed: t.Seed}
			byKey[k] = o
			order = append(order, o)
		}
		return o
	}
	start := time.Now()
	res, err := experiment.Run(ctx, u.spec, experiment.RunOptions{
		Dir:     dir,
		Workers: workers,
		OnSnapshot: func(t experiment.Task, s runner.Snapshot) {
			now := time.Since(start)
			mu.Lock()
			defer mu.Unlock()
			o := obs(t)
			if o.frames == 0 {
				o.first = now
			} else if s.Iteration <= o.last.Iteration {
				o.backstep = true
			}
			o.frames++
			o.last = s
		},
		OnTask: func(t experiment.Task, m experiment.Metrics, terr error) {
			now := time.Since(start)
			mu.Lock()
			defer mu.Unlock()
			o := obs(t)
			o.result, o.metrics, o.err, o.done = now, m, terr, true
		},
	})
	wall := time.Since(start)
	if err != nil {
		return nil, err
	}
	results, err := os.ReadFile(filepath.Join(dir, experiment.ResultsJSONL))
	if err != nil {
		return nil, err
	}
	return &unitRun{wall: wall, res: res, tasks: order, results: results}, nil
}

// checkCold verifies a cold unit: every task ran to its budget and ends
// connected and hole-free with n particles, and λ=4 line starts compressed.
func checkCold(u unit, r *unitRun) []string {
	var bad []string
	want, _ := experiment.TaskCount(u.spec)
	if r.res.TasksRun != want || r.res.TasksReplayed != 0 || r.res.Failures != 0 || len(r.tasks) != want {
		bad = append(bad, fmt.Sprintf("ran %d tasks (%d observed, %d replayed, %d failed), want %d",
			r.res.TasksRun, len(r.tasks), r.res.TasksReplayed, r.res.Failures, want))
	}
	for _, t := range r.tasks {
		n := t.point.N
		switch {
		case !t.done || t.err != nil:
			bad = append(bad, fmt.Sprintf("%s: task failed: %v", t.point, t.err))
		case t.frames == 0 || t.backstep:
			bad = append(bad, fmt.Sprintf("%s: %d frames, monotone=%v", t.point, t.frames, !t.backstep))
		case t.last.Iteration != u.spec.Iterations:
			bad = append(bad, fmt.Sprintf("%s: ran %d steps, budget %d", t.point, t.last.Iteration, u.spec.Iterations))
		case !connectedHoleFree(n, t.last.Perimeter, t.last.Edges, t.last.HoleFree):
			bad = append(bad, fmt.Sprintf("%s: final perimeter %d, edges %d, hole-free %v: not one hole-free component of %d particles",
				t.point, t.last.Perimeter, t.last.Edges, t.last.HoleFree, n))
		case t.metrics["perimeter"] != float64(t.last.Perimeter) || t.metrics["edges"] != float64(t.last.Edges):
			bad = append(bad, fmt.Sprintf("%s: result %v disagrees with the last frame %+v", t.point, t.metrics, t.last))
		case u.compress && t.metrics["alpha"] >= metrics.Alpha(2*n-2, n):
			bad = append(bad, fmt.Sprintf("%s: α %.3f did not fall below the line start's", t.point, t.metrics["alpha"]))
		}
	}
	return bad
}

// connectedHoleFree reports whether a configuration of n particles with
// the given perimeter and edge count is one hole-free component: exactly
// then does p = 3n − e − 3 hold (each extra component lowers the right
// side by 3).
func connectedHoleFree(n, perimeter, edges int, holeFree bool) bool {
	return holeFree && perimeter == 3*n-edges-3
}

// checkHit verifies a journal replay: no task re-simulated, and the
// results file is byte-identical to the cold run's.
func checkHit(u unit, r *unitRun, cold []byte) []string {
	want, _ := experiment.TaskCount(u.spec)
	var bad []string
	if r.res.TasksRun != 0 || r.res.TasksReplayed != want {
		bad = append(bad, fmt.Sprintf("replay ran %d tasks and replayed %d, want 0 and %d", r.res.TasksRun, r.res.TasksReplayed, want))
	}
	if !bytes.Equal(r.results, cold) {
		bad = append(bad, fmt.Sprintf("replayed %s differs from the cold run's", experiment.ResultsJSONL))
	}
	return bad
}

// pass is one timed stretch of a workload.
type pass struct {
	steps             float64
	runs              int
	first, result     samples
	attempted, failed int
	problems          []string
	// stepRates and runRates hold each cycle's throughput. Every cycle is
	// the same mix of work, so their interquartile means estimate the
	// pass's rates without the weight of a burst of contention from
	// outside.
	stepRates, runRates []float64
}

// cycle records one finished cycle's throughput.
func (p *pass) cycle(wall time.Duration, steps float64, runs int) {
	p.stepRates = append(p.stepRates, steps/wall.Seconds())
	p.runRates = append(p.runRates, float64(runs)/wall.Seconds())
}

func (p *pass) record(bad []string) {
	p.attempted++
	if len(bad) > 0 {
		p.failed++
		for _, b := range bad {
			if len(p.problems) < 10 {
				p.problems = append(p.problems, b)
			}
		}
	}
}

// rerun executes the given cold units again in fresh directories: equal
// specs must give byte-identical results files.
func (p *pass) rerun(store string, units []unit, runs []*unitRun, workers int) {
	for i, u := range units {
		if u.repeat >= 0 || runs[i] == nil {
			continue
		}
		r, err := runUnit(context.Background(), u, filepath.Join(store, fmt.Sprintf("rerun-u%02d", i)), workers)
		switch {
		case err != nil:
			p.record([]string{fmt.Sprintf("rerun of unit %d: %v", i, err)})
		case !bytes.Equal(r.results, runs[i].results):
			p.record([]string{fmt.Sprintf("rerun of unit %d: %s differs from the first run's", i, experiment.ResultsJSONL)})
		default:
			p.record(nil)
		}
	}
}

// enough reports whether every p90 has its minTailSamples samples.
func (p *pass) enough() bool {
	return len(p.first) >= minTailSamples && len(p.result) >= minTailSamples
}

// hardStop bounds a pass that cannot gather its samples, so a run always
// ends well inside its time limit.
const hardStop = 100 * time.Second

// measure runs whole cycles until dur has passed (and, with needSamples,
// every percentile has its samples), making st's set-ups between cycles
// as they fall due. With lp set, one cold unit in probeEvery is replayed
// layer by layer once the timed stretch is over.
func (w expWorkload) measure(e env, store string, dur time.Duration, needSamples bool, tr *tracer, lp *layerProbe, st *setupTimer) *pass {
	p := &pass{}
	ctx := context.Background()
	type probe struct {
		u     unit
		dir   string
		r     *unitRun
		group int64
	}
	var probes []probe
	var first []unit
	var firstRuns []*unitRun
	start := time.Now()
	cold := 0
	for c := 0; ; c++ {
		if c > 0 && (time.Since(start) >= dur && (!needSamples || p.enough()) || time.Since(start) >= hardStop) {
			break
		}
		units := w.cycle(e.seed, c, e.workers, e.tiny)
		cs, csteps, cruns := time.Now(), p.steps, p.runs
		runs := make([]*unitRun, len(units))
		for i, u := range units {
			dir := filepath.Join(store, fmt.Sprintf("c%05d-u%02d", c, i))
			if u.repeat >= 0 {
				dir = filepath.Join(store, fmt.Sprintf("c%05d-u%02d", c, u.repeat))
			}
			group := int64(c*100 + i)
			if tr != nil {
				sid := tr.begin("experiment.Normalize+Digest", group, -1)
				_, err1 := experiment.Normalize(u.spec)
				_, err2 := experiment.Digest(u.spec)
				tr.end(sid)
				if err1 != nil || err2 != nil {
					p.record([]string{fmt.Sprintf("normalize: %v %v", err1, err2)})
					continue
				}
			}
			sid := tr.begin("experiment.Run", group, -1)
			r, err := runUnit(ctx, u, dir, e.workers)
			tr.end(sid)
			if err != nil {
				p.record([]string{fmt.Sprintf("unit %d of cycle %d: %v", i, c, err)})
				continue
			}
			runs[i] = r
			p.runs += len(r.tasks) + r.res.TasksReplayed
			if u.repeat >= 0 {
				var coldBytes []byte
				if runs[u.repeat] != nil {
					coldBytes = runs[u.repeat].results
				}
				p.record(checkHit(u, r, coldBytes))
				continue
			}
			for _, t := range r.tasks {
				p.first.add(t.first)
				p.result.add(t.result)
				if t.done && t.err == nil {
					p.steps += float64(u.spec.Iterations)
				}
			}
			p.record(checkCold(u, r))
			if lp != nil && cold%w.probeEvery == 0 {
				probes = append(probes, probe{u, dir, r, group})
			}
			cold++
		}
		p.cycle(time.Since(cs), p.steps-csteps, p.runs-cruns)
		if st.due() {
			st.run()
		}
		if c == 0 {
			first, firstRuns = units, runs
		}
	}
	if w.rerun {
		p.rerun(store, first, firstRuns, e.workers)
	}
	for _, pr := range probes {
		lp.unit(pr.u, pr.dir, pr.r, e.workers, pr.group)
	}
	return p
}

// setup creates a fresh store and runs the warm-up in it: every cold unit
// of a cycle of its own seed, at 1/warmupDiv of the budget. Its time is
// the time until the first measured unit can be submitted.
func (w expWorkload) setup(e env, k int) (string, time.Duration, error) {
	t0 := time.Now()
	store := filepath.Join(e.store, fmt.Sprintf("setup-%d", k))
	if err := os.MkdirAll(store, 0o755); err != nil {
		return "", 0, err
	}
	for i, u := range w.cycle(mix(e.seed, 0xfeed), 0, e.workers, e.tiny) {
		if u.repeat >= 0 {
			continue
		}
		u.spec.Iterations = max(u.spec.Iterations/w.warmupDiv, 8)
		u.spec.SnapshotEvery = u.spec.Iterations / 2
		r, err := runUnit(context.Background(), u, filepath.Join(store, fmt.Sprintf("warmup-%02d", i)), e.workers)
		if err != nil {
			return "", 0, fmt.Errorf("warm-up: %w", err)
		}
		if bad := checkCold(u, r); len(bad) > 0 {
			return "", 0, fmt.Errorf("warm-up: %s", bad[0])
		}
	}
	return store, time.Since(t0), nil
}

// setupTimer times setupReps more set-ups, spread evenly across a timed
// pass: the pass stops between two cycles when the next one is due, and
// the set-up runs with no measured work in flight. The machine's speed
// drifts over seconds, so set-ups made back to back would all sample one
// moment of it. Every sample sees a warm process: the first set-up of a
// run, which the pass uses, also pays the process's cold start.
type setupTimer struct {
	setup func(k int) (teardown func(), d time.Duration, err error)
	start time.Time
	dur   time.Duration
	times []float64
	err   error
}

// newSetupTimer starts the clock of a pass of length dur.
func newSetupTimer(dur time.Duration, setup func(k int) (func(), time.Duration, error)) *setupTimer {
	return &setupTimer{setup: setup, start: time.Now(), dur: dur}
}

// due reports whether the next set-up is due: the k-th at k/(setupReps+1)
// of the pass. A nil timer is never due.
func (t *setupTimer) due() bool {
	if t == nil || t.err != nil || len(t.times) >= setupReps {
		return false
	}
	return time.Since(t.start) >= t.dur*time.Duration(len(t.times)+1)/(setupReps+1)
}

// run times one set-up and tears it down. It first collects the heap, so
// the set-up neither pays for the pass's garbage nor piles its own on top
// of it.
func (t *setupTimer) run() {
	runtime.GC()
	teardown, d, err := t.setup(len(t.times) + 1)
	if err != nil {
		t.err = err
		return
	}
	teardown()
	t.times = append(t.times, d.Seconds())
}

// median returns the median set-up time in seconds, first making the
// set-ups a pass that ended early left undone.
func (t *setupTimer) median() (float64, error) {
	for t.err == nil && len(t.times) < setupReps {
		t.run()
	}
	if t.err != nil {
		return 0, t.err
	}
	return median(t.times)
}

// run executes the workload: set-up, then either one measured pass
// (end-to-end metrics) or an untraced and a traced pass over the same
// inputs (per-layer metrics and tracing overhead).
func (w expWorkload) run(e env, traced bool) (*outcome, error) {
	store, _, err := w.setup(e, 0)
	if err != nil {
		return nil, err
	}
	out := &outcome{}
	if !traced {
		st := newSetupTimer(e.seconds, func(k int) (func(), time.Duration, error) {
			s, d, err := w.setup(e, k)
			return func() { os.RemoveAll(s) }, d, err
		})
		p := w.measure(e, store, e.seconds, true, nil, nil, st)
		out.add(p)
		setupS, err := st.median()
		if err != nil {
			return nil, err
		}
		endToEnd(&out.rep, p, setupS)
		return out, nil
	}
	base := w.measure(e, filepath.Join(store, "base"), e.seconds/2, false, nil, nil, nil)
	tr := newTracer()
	lp := newLayerProbe(tr)
	tp := w.measure(e, filepath.Join(store, "traced"), e.seconds/2, false, tr, lp, nil)
	out.add(base)
	out.add(tp)
	out.addProbe(lp)
	for _, ms := range tr.durations("experiment.Normalize+Digest") {
		lp.normalize = append(lp.normalize, ms*1000)
	}
	lp.emit(&out.rep, base, tp)
	tr.printSelfTimes()
	if err := tr.write(spanFile(e, w.name)); err != nil {
		return nil, err
	}
	return out, nil
}

func (o *outcome) add(p *pass) {
	o.attempted += p.attempted
	o.failed += p.failed
	o.problems = append(o.problems, p.problems...)
}

// addProbe counts the layer probes' checks as operations.
func (o *outcome) addProbe(lp *layerProbe) {
	o.attempted += lp.attempted
	o.failed += lp.failed
	o.problems = append(o.problems, lp.problems...)
}

// endToEnd adds the end-to-end metrics of a measured pass.
func endToEnd(r *report, p *pass, setupS float64) {
	steps, _ := midMean(p.stepRates)
	runs, _ := midMean(p.runRates)
	r.add("steps_per_s", steps, "1/s", len(p.stepRates))
	r.add("runs_per_s", runs, "1/s", len(p.runRates))
	r.add("setup_s", setupS, "s", setupReps)
	r.add("peak_rss_mb", peakRSSMB(), "MB", 0)
	r.pct("first_frame_p50_ms", p.first, 0.5)
	r.pct("first_frame_p90_ms", p.first, 0.9)
	r.pct("result_p50_ms", p.result, 0.5)
	r.pct("result_p90_ms", p.result, 0.9)
}

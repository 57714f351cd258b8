package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"time"

	"sops/internal/client"
	"sops/internal/config"
	"sops/internal/experiment"
	"sops/internal/frame"
	"sops/internal/lattice"
	"sops/internal/runner"
	"sops/internal/serve"
)

// job is one submission of the serve-jobs workload.
type job struct {
	req serve.JobRequest
	// size is the job's particle count before tiny scaling; the warm-up
	// and the repeats pick jobs by it.
	size int
	// repeat is the cycle index of the cold job this one resubmits (a
	// cache hit); -1 for a cold job.
	repeat int
	// cancel asks the client to DELETE the job after its first frame.
	cancel bool
	// steps is the Metropolis-equivalent work of the whole job.
	steps uint64
}

// repeatRuns and repeatSweeps are the sizes of the cold run and sweep
// jobs a cycle resubmits.
var (
	repeatRuns   = []int{20, 26, 32, 38, 44, 50, 56}
	repeatSweeps = []int{10, 13, 16}
)

// serveCycle returns the 40 submissions of one client's cycle c: 30 cold
// jobs — 20 chain run jobs, one at each size n = 20, 22, …, 58, 7 small
// sweep jobs, one at each n = 10…16, and 3 long run jobs (n = 40, 50, 60)
// cancelled after their first frame — and 10 resubmissions of completed
// cold jobs, always of the sizes in repeatRuns and repeatSweeps. The seed
// picks the simulation seeds and the order. The sizes are spread evenly,
// not bunched in a few classes, so every percentile sits in a dense
// stretch of its distribution and follows the machine's speed smoothly
// instead of jumping from one class to the next.
func serveCycle(seed uint64, cl, c int, tiny bool) []job {
	rng := rand.New(rand.NewPCG(mix(seed, uint64(cl)), uint64(c)))
	id := uint64(0)
	next := func() uint64 { id++; return mix(seed, uint64(cl), uint64(c), id) }
	scale := func(n int) int {
		if tiny {
			return max(6, n/4)
		}
		return n
	}
	runJob := func(size int, perN2, snaps uint64) job {
		n := scale(size)
		b := perN2 * uint64(n*n)
		o := runner.Options{N: n, Lambda: 4, Engine: runner.EngineChain, Start: runner.StartLine,
			Iterations: b, SnapshotEvery: b / snaps, Seed: next()}
		return job{req: serve.JobRequest{Run: &o}, size: size, repeat: -1, steps: b}
	}
	var cold []job
	for size := 20; size < 60; size += 2 {
		cold = append(cold, runJob(size, 200, 8))
	}
	for _, size := range []int{40, 50, 60} {
		j := runJob(size, 800, 64)
		j.cancel = true
		cold = append(cold, j)
	}
	for size := 10; size <= 16; size++ {
		n := scale(size)
		b := uint64(200 * n * n)
		sp := experiment.Spec{Scenario: "compress", Sizes: []int{n}, Engines: []string{experiment.EngineChain},
			Rules: []string{runner.RuleCompression, runner.RuleAlignment}, Reps: 1,
			Iterations: b, SnapshotEvery: b / 4, Seed: next()}
		cold = append(cold, job{req: serve.JobRequest{Spec: &sp}, size: size, repeat: -1, steps: 2 * b})
	}
	rng.Shuffle(len(cold), func(i, j int) { cold[i], cold[j] = cold[j], cold[i] })
	repeated := func(j job) bool {
		sizes := repeatRuns
		if j.req.Spec != nil {
			sizes = repeatSweeps
		}
		return !j.cancel && slices.Contains(sizes, j.size)
	}
	var out []job
	var due []int // completed cold jobs still to be resubmitted
	resubmit := func(k int) {
		target := due[k]
		due = slices.Delete(due, k, k+1)
		out = append(out, job{req: out[target].req, size: out[target].size, repeat: target, steps: out[target].steps})
	}
	for i, j := range cold {
		out = append(out, j)
		if repeated(j) {
			due = append(due, len(out)-1)
		}
		if (i+1)%3 == 0 && len(due) > 0 {
			resubmit(rng.IntN(len(due)))
		}
	}
	for len(due) > 0 {
		resubmit(0)
	}
	return out
}

// served is one running service: an in-process serve.Server on a
// loopback listener and the client that drives it.
type served struct {
	srv    *serve.Server
	hs     *http.Server
	hc     *http.Client
	base   string
	c      *client.Client
	dir    string
	served chan error
}

// clientsFor splits nproc between closed-loop clients and the job pool so
// that clients + Jobs×TaskWorkers ≤ nproc: two clients from four cores up,
// one below.
func clientsFor(nproc int) (clients, jobs int) {
	clients = 1
	if nproc >= 4 {
		clients = 2
	}
	return clients, max(1, nproc-clients)
}

func startServed(e env, dir string) (*served, error) {
	_, jobs := clientsFor(e.workers)
	srv, err := serve.New(serve.Options{Dir: dir, Jobs: jobs, TaskWorkers: 1})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &served{
		srv:    srv,
		hs:     &http.Server{Handler: srv},
		hc:     &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}},
		base:   "http://" + ln.Addr().String(),
		dir:    dir,
		served: make(chan error, 1),
	}
	s.c = client.New(s.base, client.WithHTTPClient(s.hc))
	go func() { s.served <- s.hs.Serve(ln) }()
	if err := s.c.Health(context.Background()); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// close stops the listener, the job pool and the idle connections, and
// waits for the HTTP server to return.
func (s *served) close() {
	s.hs.Close()
	<-s.served
	s.srv.Close()
	s.hc.CloseIdleConnections()
}

// jobObs is what a client observed of one job.
type jobObs struct {
	id       string
	first    time.Duration // submit → first snapshot frame
	result   time.Duration // submit → result bytes
	cancelAt time.Duration // submit → DELETE issued
	doneAt   time.Duration // submit → done frame
	state    string
	cacheHit bool
	lastIter uint64
	bytes    []byte
}

// drive submits one job and follows it to its result: Submit, Stream
// (binary frames, decoded by the client) and Result; a cancel job is
// deleted on its first frame. It returns the observations and the
// problems its checks found.
func drive(ctx context.Context, s *served, tr *tracer, group int64, j job, coldBytes []byte) (*jobObs, []string) {
	o := &jobObs{}
	var bad []string
	start := time.Now()
	sid := tr.begin("client.Submit", group, -1)
	rec, err := s.c.Submit(ctx, j.req)
	tr.end(sid)
	if err != nil {
		return o, []string{fmt.Sprintf("submit: %v", err)}
	}
	o.id = rec.ID
	type key struct {
		point string
		rep   int
	}
	lastByTask := make(map[key]uint64)
	lastSnap := make(map[key]runner.Snapshot)
	taskFrames := 0
	var last *runner.Snapshot
	seq := -1
	sid = tr.begin("client.Stream", group, -1)
	err = s.c.Stream(ctx, rec.ID, func(f serve.Frame, _ []byte) error {
		now := time.Since(start)
		if f.Seq <= seq {
			bad = append(bad, fmt.Sprintf("job %s: frame seq %d after %d", rec.ID, f.Seq, seq))
		}
		seq = f.Seq
		switch f.Type {
		case serve.FrameSnapshot:
			k := key{rep: f.Rep}
			if f.Point != nil {
				k.point = f.Point.String()
			}
			if it, ok := lastByTask[k]; ok && f.Snapshot.Iteration <= it {
				bad = append(bad, fmt.Sprintf("job %s: frame iteration %d after %d", rec.ID, f.Snapshot.Iteration, it))
			}
			lastByTask[k] = f.Snapshot.Iteration
			lastSnap[k] = *f.Snapshot
			last = f.Snapshot
			o.lastIter = f.Snapshot.Iteration
			if o.first == 0 {
				o.first = now
				if j.cancel {
					o.cancelAt = time.Since(start)
					did := tr.begin("client.Delete", group, -1)
					_, _, derr := s.c.Delete(ctx, rec.ID)
					tr.end(did)
					if derr != nil {
						bad = append(bad, fmt.Sprintf("job %s: delete: %v", rec.ID, derr))
					}
				}
			}
		case serve.FrameTask:
			taskFrames++
			k := key{point: f.Point.String(), rep: f.Rep}
			if f.Error != "" || f.Metrics["perimeter"] != float64(lastSnap[k].Perimeter) {
				bad = append(bad, fmt.Sprintf("job %s: task %s ends %v, last frame %+v", rec.ID, k.point, f.Metrics, lastSnap[k]))
			}
		case serve.FrameDone:
			o.doneAt, o.state, o.cacheHit = now, f.State, f.CacheHit
		}
		return nil
	})
	tr.end(sid)
	if err != nil {
		return o, append(bad, fmt.Sprintf("job %s: stream: %v", rec.ID, err))
	}
	if j.cancel {
		if o.state != serve.StateCanceled && o.state != serve.StateDone {
			bad = append(bad, fmt.Sprintf("job %s: cancelled job ended %q", rec.ID, o.state))
		}
		return o, bad
	}
	if o.state != serve.StateDone || o.cacheHit != (j.repeat >= 0) {
		return o, append(bad, fmt.Sprintf("job %s: ended %q, cache hit %v, want done, %v", rec.ID, o.state, o.cacheHit, j.repeat >= 0))
	}
	sid = tr.begin("client.Result", group, -1)
	o.bytes, _, err = s.c.Result(ctx, rec.ID)
	tr.end(sid)
	o.result = time.Since(start)
	if err != nil {
		return o, append(bad, fmt.Sprintf("job %s: result: %v", rec.ID, err))
	}
	if j.repeat >= 0 {
		if !bytes.Equal(o.bytes, coldBytes) {
			bad = append(bad, fmt.Sprintf("job %s: cache-hit result differs from the cold job's", rec.ID))
		}
		return o, bad
	}
	if j.req.Run != nil {
		return o, append(bad, checkRunResult(rec.ID, j, o.bytes, last)...)
	}
	if want := 2; taskFrames != want || len(o.bytes) == 0 {
		bad = append(bad, fmt.Sprintf("job %s: %d task frames and %d result bytes, want %d tasks", rec.ID, taskFrames, len(o.bytes), want))
	}
	return o, bad
}

// checkRunResult verifies a run job's stored result against its stream:
// the budget was spent, n particles end in one hole-free component, and
// the last streamed snapshot is the result's final measurement.
func checkRunResult(id string, j job, raw []byte, last *runner.Snapshot) []string {
	var res runner.Result
	if err := json.Unmarshal(raw, &res); err != nil {
		return []string{fmt.Sprintf("job %s: result: %v", id, err)}
	}
	var bad []string
	if res.Iterations != j.steps {
		bad = append(bad, fmt.Sprintf("job %s: ran %d steps, budget %d", id, res.Iterations, j.steps))
	}
	cfg := config.New()
	for _, p := range res.Points {
		cfg.Add(lattice.Point{X: p.X, Y: p.Y})
	}
	if cfg.N() != j.req.Run.N || !cfg.Connected() || !res.HoleFree {
		bad = append(bad, fmt.Sprintf("job %s: ends with %d particles, connected %v, hole-free %v", id, cfg.N(), cfg.Connected(), res.HoleFree))
	}
	if last == nil || len(res.Snapshots) == 0 || *last != res.Snapshots[len(res.Snapshots)-1] ||
		last.Perimeter != res.Perimeter || last.Edges != res.Edges || last.Iteration != res.Iterations {
		bad = append(bad, fmt.Sprintf("job %s: last streamed snapshot %+v differs from the result", id, last))
	}
	return bad
}

// servePass is one timed stretch of the serve-jobs workload.
type servePass struct {
	pass
	hit        samples // submit → result of cache hits
	cancel     samples
	cancelMiss int
	inspect    []inspectJob // jobs the traced pass looks into afterwards
	cycles     int          // cycles run so far: the next cycle's index
}

// inspectJob is a finished cold job kept for the traced pass's layer
// probes.
type inspectJob struct {
	id    string
	j     job
	obs   *jobObs
	group int64
}

// enough reports whether this client, one of clients, has its share of
// every percentile's samples.
func (p *servePass) enough(clients int) bool {
	return len(p.first)*clients >= minTailSamples && len(p.result)*clients >= minTailSamples
}

// clientLoop runs one client's next whole cycles into p, at least one,
// until stop reports true between two cycles.
func clientLoop(ctx context.Context, s *served, e env, cl int, p *servePass, stop func() bool, tr *tracer, keep bool) {
	for first := true; first || !stop(); first = false {
		c := p.cycles
		p.cycles++
		jobs := serveCycle(e.seed, cl, c, e.tiny)
		cs, csteps, cruns := time.Now(), p.steps, p.runs
		obs := make([]*jobObs, len(jobs))
		for i, j := range jobs {
			var coldBytes []byte
			if j.repeat >= 0 && obs[j.repeat] != nil {
				coldBytes = obs[j.repeat].bytes
			}
			group := int64(cl)<<32 | int64(c*100+i)
			o, bad := drive(ctx, s, tr, group, j, coldBytes)
			obs[i] = o
			p.record(bad)
			switch {
			case j.repeat >= 0:
				p.hit = append(p.hit, ms(o.result))
				p.runs++
			case j.cancel:
				p.first = append(p.first, ms(o.first))
				p.steps += float64(o.lastIter)
				if o.state == serve.StateCanceled {
					p.cancel = append(p.cancel, ms(o.doneAt-o.cancelAt))
				} else {
					p.cancelMiss++
					p.steps += float64(j.steps - o.lastIter)
					p.runs++
				}
			default:
				p.first = append(p.first, ms(o.first))
				p.result = append(p.result, ms(o.result))
				p.steps += float64(j.steps)
				p.runs++
			}
			switch {
			case keep && len(bad) == 0 && !j.cancel:
				p.inspect = append(p.inspect, inspectJob{id: o.id, j: j, obs: o, group: group})
			case o.id != "":
				forget(s, o.id)
			}
		}
		p.cycle(time.Since(cs), p.steps-csteps, p.runs-cruns)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// servePassAll runs every client concurrently until dur has passed and,
// with needSamples, every percentile has its samples, and merges their
// passes. When one of st's set-ups falls due, every client stops after
// its current cycle, the set-up runs alone, and the clients go on.
func servePassAll(s *served, e env, dur time.Duration, needSamples bool, tr *tracer, keep bool, st *setupTimer) *servePass {
	clients, _ := clientsFor(e.workers)
	parts := make([]*servePass, clients)
	for cl := range parts {
		parts[cl] = &servePass{}
	}
	start := time.Now()
	for {
		var wg sync.WaitGroup
		for cl, p := range parts {
			wg.Add(1)
			go func() {
				defer wg.Done()
				clientLoop(context.Background(), s, e, cl, p, func() bool {
					el := time.Since(start)
					return st.due() || el >= dur && (!needSamples || p.enough(clients)) || el >= hardStop
				}, tr, keep)
			}()
		}
		wg.Wait()
		if !st.due() {
			break
		}
		st.run()
	}
	all := &servePass{}
	for _, p := range parts {
		all.steps += p.steps
		all.runs += p.runs
		all.first = append(all.first, p.first...)
		all.result = append(all.result, p.result...)
		all.hit = append(all.hit, p.hit...)
		all.attempted += p.attempted
		all.failed += p.failed
		all.problems = append(all.problems, p.problems...)
		all.cancel = append(all.cancel, p.cancel...)
		all.cancelMiss += p.cancelMiss
		all.inspect = append(all.inspect, p.inspect...)
		all.stepRates = append(all.stepRates, p.stepRates...)
		all.runRates = append(all.runRates, p.runRates...)
	}
	return all
}

// setupServe brings a fresh service up and drives warm-up jobs through it:
// from a cycle of its own seed, the cold run jobs of sizes 20, 30, 40 and
// 50 and the sweep job of size 12, so every set-up does the same work.
func setupServe(e env, k int) (*served, time.Duration, error) {
	t0 := time.Now()
	dir := filepath.Join(e.store, fmt.Sprintf("setup-%d", k))
	s, err := startServed(e, dir)
	if err != nil {
		return nil, 0, err
	}
	for _, j := range serveCycle(mix(e.seed, 0xfeed), 0, 0, e.tiny) {
		warm := j.size == 12
		if j.req.Run != nil {
			warm = j.size%10 == 0
		}
		if j.repeat >= 0 || j.cancel || !warm {
			continue
		}
		if _, bad := drive(context.Background(), s, nil, 0, j, nil); len(bad) > 0 {
			s.close()
			return nil, 0, fmt.Errorf("warm-up: %s", bad[0])
		}
	}
	return s, time.Since(t0), nil
}

func runServeJobs(e env, traced bool) (*outcome, error) {
	s, _, err := setupServe(e, 0)
	if err != nil {
		return nil, err
	}
	defer s.close()
	out := &outcome{}
	if !traced {
		st := newSetupTimer(e.seconds, func(k int) (func(), time.Duration, error) {
			s, d, err := setupServe(e, k)
			if err != nil {
				return nil, 0, err
			}
			return func() { s.close(); os.RemoveAll(s.dir) }, d, nil
		})
		p := servePassAll(s, e, e.seconds, true, nil, false, st)
		out.add(&p.pass)
		setupS, err := st.median()
		if err != nil {
			return nil, err
		}
		endToEnd(&out.rep, &p.pass, setupS)
		return out, nil
	}
	base := servePassAll(s, e, e.seconds/2, false, nil, false, nil)
	// The traced pass replays the same submissions, so it needs a store
	// of its own: over the first one every job would be a cache hit.
	s, _, err = setupServe(e, 1)
	if err != nil {
		return nil, err
	}
	defer s.close()
	tr := newTracer()
	tasksBefore := counter(s, "tasks_run")
	tp := servePassAll(s, e, e.seconds/2, false, tr, true, nil)
	lp := newLayerProbe(tr)
	sl := &lp.serve
	sl.tasksRun = int(counter(s, "tasks_run") - tasksBefore)
	sl.submit = tr.durations("client.Submit")
	sl.resultFetch = tr.durations("client.Result")
	sl.cancel = tp.cancel
	sl.cancelMissed = tp.cancelMiss
	sl.jobs = tp.attempted
	sl.hit = tp.hit
	lp.inspectServe(s, tp.inspect)
	out.add(&base.pass)
	out.add(&tp.pass)
	out.addProbe(lp)
	lp.emit(&out.rep, &base.pass, &tp.pass)
	tr.printSelfTimes()
	if err := tr.write(spanFile(e, "serve-jobs")); err != nil {
		return nil, err
	}
	return out, nil
}

// forget drops a finished job's record from the manager, so the service's
// memory does not grow with the number of jobs a run gets through. The
// cached result, keyed by digest, stays.
func forget(s *served, id string) {
	_, _, _ = s.srv.Manager().Delete(id) // a job that is already gone needs nothing
}

// counter reads one of the manager's expvar counters.
func counter(s *served, name string) int64 {
	v := s.srv.Manager().Metrics().Get(name)
	if v == nil {
		return 0
	}
	n, _ := strconv.ParseInt(v.String(), 10, 64)
	return n
}

// inspectServe runs the traced pass's serve, frame and client probes over
// its finished jobs: the job record's phase timestamps, the stored binary
// frame log decoded by frame.Decoder and by the client's transcoder, and a
// layer-by-layer replay of one run job in four.
func (lp *layerProbe) inspectServe(s *served, jobs []inspectJob) {
	ctx := context.Background()
	replayed := 0
	for _, ij := range jobs {
		rec, err := s.c.Job(ctx, ij.id)
		if err != nil {
			lp.check(fmt.Sprintf("job %s: record: %v", ij.id, err))
			continue
		}
		if rec.StartedAt != nil {
			lp.serve.queueWait = append(lp.serve.queueWait, ms(rec.StartedAt.Sub(rec.SubmittedAt)))
			if rec.FinishedAt != nil && ij.j.repeat < 0 && !ij.j.cancel {
				lp.serve.simulate = append(lp.serve.simulate, ms(rec.FinishedAt.Sub(*rec.StartedAt)))
			}
		}
		if ij.j.req.Run == nil || ij.j.repeat >= 0 || ij.j.cancel {
			continue
		}
		lp.check(lp.frames(ctx, s, ij)...)
		if replayed%4 == 0 {
			lp.replayRunJob(ij)
		}
		replayed++
	}
	for _, ij := range jobs {
		forget(s, ij.id)
	}
}

// frames fetches a run job's stored binary frame log, decodes it with
// frame.Decoder (the frame layer) and with the client's transcode path
// (the client layer), and checks the decoded final configuration against
// the job's result.
func (lp *layerProbe) frames(ctx context.Context, s *served, ij inspectJob) []string {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/v1/jobs/"+ij.id+"/frames?format=binary", nil)
	if err != nil {
		return []string{err.Error()}
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return []string{fmt.Sprintf("job %s: frames: %v", ij.id, err)}
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return []string{fmt.Sprintf("job %s: frames: status %d, %v", ij.id, resp.StatusCode, err)}
	}
	recs, err := frame.Split(raw)
	if err != nil {
		return []string{fmt.Sprintf("job %s: frames: %v", ij.id, err)}
	}
	sl := &lp.serve
	var dec frame.Decoder
	sid := lp.tr.begin("frame.Decoder", ij.group, -1)
	snaps := 0
	for _, rec := range recs {
		r, err := dec.Decode(rec)
		if err != nil {
			lp.tr.end(sid)
			return []string{fmt.Sprintf("job %s: decode: %v", ij.id, err)}
		}
		if r.Kind == frame.KindRaw {
			continue
		}
		snaps++
		sl.frameBytes += len(rec)
		if r.Kind == frame.KindKeyframe {
			sl.keyframes++
		}
	}
	lp.tr.end(sid)
	sl.frames += snaps
	sl.frameJobs++

	var tc serve.FrameTranscoder
	sid = lp.tr.begin("client.decode", ij.group, -1)
	for _, rec := range recs {
		line, err := tc.Transcode(rec)
		if err != nil {
			lp.tr.end(sid)
			return []string{fmt.Sprintf("job %s: transcode: %v", ij.id, err)}
		}
		var f serve.Frame
		if err := json.Unmarshal(line, &f); err != nil {
			lp.tr.end(sid)
			return []string{fmt.Sprintf("job %s: transcode: %v", ij.id, err)}
		}
	}
	d := lp.tr.end(sid)
	if len(recs) > 0 {
		sl.decode = append(sl.decode, float64(d)/float64(time.Microsecond)/float64(len(recs)))
	}

	var res runner.Result
	if err := json.Unmarshal(ij.obs.bytes, &res); err != nil {
		return []string{fmt.Sprintf("job %s: result: %v", ij.id, err)}
	}
	got := dec.Points()
	if len(got) != len(res.Points) {
		return []string{fmt.Sprintf("job %s: decoded %d points, result has %d", ij.id, len(got), len(res.Points))}
	}
	want := make(map[lattice.Point]bool, len(res.Points))
	for _, p := range res.Points {
		want[lattice.Point{X: p.X, Y: p.Y}] = true
	}
	for _, p := range got {
		if !want[p] {
			return []string{fmt.Sprintf("job %s: decoded configuration differs from the result's", ij.id)}
		}
	}
	return nil
}

// replayRunJob replays a chain run job layer by layer.
func (lp *layerProbe) replayRunJob(ij inspectJob) {
	var res runner.Result
	if err := json.Unmarshal(ij.obs.bytes, &res); err != nil || len(res.Snapshots) == 0 {
		lp.check(fmt.Sprintf("job %s: result: %v", ij.id, err))
		return
	}
	o := *ij.j.req.Run
	t := &taskObs{point: experiment.Point{Lambda: o.Lambda, N: o.N, Start: string(o.Start), Engine: o.Engine, Rule: o.Rule},
		seed: o.Seed, last: res.Snapshots[len(res.Snapshots)-1]}
	if t.point.Rule == "" {
		t.point.Rule = runner.RuleCompression
	}
	lp.replay(ij.group, []*taskObs{t}, o.Iterations, o.SnapshotEvery)
}

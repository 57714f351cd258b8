package main

import (
	"encoding/json"
	"maps"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// tinyEnv is a smoke-test environment: tiny inputs, a one-second pass.
func tinyEnv(t *testing.T) env {
	return env{seed: 7, seconds: time.Second, workers: runtime.NumCPU(), store: t.TempDir(), tiny: true}
}

// TestWorkloadsSmoke runs every workload at tiny size in both modes: every
// output check passes and exactly the metrics BENCHMARK.json declares are
// reported, with their units.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	endToEnd, perLayer := declared(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			out, err := w.run(tinyEnv(t), traced)
			if err == nil {
				err = out.rep.err
			}
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w.name, traced, err)
			}
			if out.attempted == 0 || out.failed != 0 {
				t.Errorf("%s (traced %v): %d of %d operations failed: %v", w.name, traced, out.failed, out.attempted, out.problems)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			got := make(map[string]string)
			for _, m := range out.rep.metrics {
				got[m.Name] = m.Unit
			}
			if !maps.Equal(got, want) {
				t.Errorf("%s (traced %v): reported metrics %v, BENCHMARK.json declares %v", w.name, traced, got, want)
			}
		}
	}
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = make(map[string]string), make(map[string]string)
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func TestMetricNames(t *testing.T) {
	endToEnd, perLayer := declared(t)
	if len(endToEnd) == 0 || len(perLayer) == 0 {
		t.Fatal("BENCHMARK.json declares no metrics")
	}
	for _, names := range []map[string]string{endToEnd, perLayer} {
		for n := range names {
			if !metricName.MatchString(n) {
				t.Errorf("metric name %q does not match %s", n, metricName)
			}
		}
	}
	for _, bad := range []string{"", "a b", "p90/ms", "α"} {
		if metricName.MatchString(bad) {
			t.Errorf("metric name %q accepted", bad)
		}
	}
}

func TestQuantileRefusesThinTail(t *testing.T) {
	xs := make([]float64, minTailSamples-1)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, err := quantile(xs, 0.9); err == nil || !strings.Contains(err.Error(), "samples") {
		t.Fatalf("p90 of %d samples: err = %v, want a refusal", len(xs), err)
	}
	if m, err := quantile(xs, 0.5); err != nil || m != 49 {
		t.Fatalf("median of 0..98 = %v, %v; want 49", m, err)
	}
	xs = append(xs, float64(len(xs)))
	if p, err := quantile(xs, 0.9); err != nil || math.Abs(p-89.1) > 1e-9 {
		t.Fatalf("p90 of 0..99 = %v, %v; want 89.1", p, err)
	}
	var r report
	r.pct("x_p90_ms", xs[:10], 0.9)
	if r.err == nil {
		t.Fatal("report accepted a p90 of 10 samples")
	}
	if _, err := quantile(nil, 0.5); err == nil {
		t.Fatal("median of no samples accepted")
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	spans := []span{
		{Name: "job", Parent: -1, Start: ms(0), End: ms(100)},
		// Two overlapping children cover [10, 50); a third covers [60, 70).
		{Name: "run", Parent: 0, Start: ms(10), End: ms(40)},
		{Name: "run", Parent: 0, Start: ms(30), End: ms(50)},
		{Name: "io", Parent: 0, Start: ms(60), End: ms(70)},
		// A grandchild counts against its parent only.
		{Name: "decode", Parent: 3, Start: ms(62), End: ms(66)},
		// A child reaching past its parent is clipped to it.
		{Name: "late", Parent: 4, Start: ms(65), End: ms(90)},
		// An open span is ignored.
		{Name: "open", Parent: 0, Start: ms(80), End: -1},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"job":    ms(100 - 40 - 10),
		"run":    ms(30 + 20),
		"io":     ms(10 - 4),
		"decode": ms(4 - 1),
		"late":   ms(25),
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %v, want %v", name, got[name], w)
		}
	}
	if _, ok := got["open"]; ok {
		t.Error("open span has a self time")
	}
}

func TestTracerNilIsOff(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", 1, -1)
	if d := tr.end(id); id != -1 || d != 0 || tr.durations("x") != nil {
		t.Fatal("nil tracer recorded a span")
	}
}

func TestMidMean(t *testing.T) {
	// The lowest and highest quarter (two of eight) are dropped.
	if m, err := midMean([]float64{100, 1, 5, 3, 4, 6, -50, 2}); err != nil || m != 3.5 {
		t.Fatalf("interquartile mean = %v, %v; want 3.5", m, err)
	}
	if m, err := midMean([]float64{7, 9}); err != nil || m != 8 {
		t.Fatalf("interquartile mean of two = %v, %v; want 8", m, err)
	}
	if _, err := midMean(nil); err == nil {
		t.Fatal("interquartile mean of no samples accepted")
	}
}

package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"time"
)

// minTailSamples is the fewest samples a p90 may rest on: ten samples lie
// beyond it, so one outlier cannot set it.
const minTailSamples = 100

// samples is a set of durations in milliseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, float64(d)/float64(time.Millisecond)) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the R-7 rule). It refuses a p90 or higher on fewer
// than minTailSamples samples and any quantile of an empty set.
func quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("quantile %.2f of no samples", q)
	}
	if q >= 0.9 && len(xs) < minTailSamples {
		return 0, fmt.Errorf("p%.0f needs at least %d samples, have %d", q*100, minTailSamples, len(xs))
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo)), nil
}

func median(xs []float64) (float64, error) { return quantile(xs, 0.5) }

// midMean returns the interquartile mean of xs: the mean of what is left
// once the lowest and the highest quarter are dropped. Like a median it
// ignores a burst of outside contention; unlike a median it moves in
// proportion when the machine spends more or less of a run slowed down,
// instead of jumping from one speed to the other.
func midMean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("mean of no samples")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := len(s) / 4
	return mean(s[cut : len(s)-cut]), nil
}

// metric is one reported number.
type metric struct {
	Name  string
	Value float64
	Unit  string
	// Samples is the number of observations behind a percentile or mean;
	// zero for rates and counts.
	Samples int
}

// metricName is the grammar every reported metric name follows.
var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// report collects metrics and the first error hit while computing them.
type report struct {
	metrics []metric
	err     error
}

func (r *report) add(name string, v float64, unit string, n int) {
	r.metrics = append(r.metrics, metric{Name: name, Value: v, Unit: unit, Samples: n})
}

// pct adds the q-quantile of xs, recording a refusal as the report's error.
func (r *report) pct(name string, xs []float64, q float64) {
	v, err := quantile(xs, q)
	if err != nil && r.err == nil {
		r.err = fmt.Errorf("%s: %w", name, err)
	}
	r.add(name, v, "ms", len(xs))
}

// mean returns the mean of xs, or 0 for none.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio returns a/b, or 0 when b is 0 (a layer the workload never ran).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

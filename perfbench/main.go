// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload from a seed, checks every output, and prints each metric
// by name with its unit; the last line of standard output is one JSON
// object {"correct", "attempted", "failed", "metrics"}.
//
//	bash perfbench/run.sh --workload kmc-long --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// the workload untraced and then traced over the same inputs, and prints
// the per-layer metrics and the tracing overhead. README.md in this
// directory defines every workload and metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// setupReps is how many set-ups setup_s is the median of.
const setupReps = 9

// env is what every workload receives.
type env struct {
	seed    uint64
	seconds time.Duration
	// workers is the simulation concurrency: runtime.NumCPU(), so
	// simulation goroutines plus client goroutines never exceed nproc.
	workers int
	// store is a fresh directory under the benchmark's work directory.
	store string
	// tiny shrinks every input for the smoke tests.
	tiny bool
}

// workload is one named set of inputs.
type workload struct {
	name string
	run  func(e env, traced bool) (*outcome, error)
}

// outcome is a workload's result: the metrics of the requested mode plus
// the operation counts behind error_rate.
type outcome struct {
	rep       report
	attempted int
	failed    int
	problems  []string
}

var workloads = []workload{
	{name: "kmc-long", run: kmcLong.run},
	{name: "sweep-short", run: sweepShort.run},
	{name: "serve-jobs", run: runServeJobs},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	name := flag.String("workload", "", "workload: kmc-long | sweep-short | serve-jobs")
	seed := flag.Uint64("seed", 1, "input seed; equal seeds give identical inputs")
	seconds := flag.Int("seconds", 25, "measured seconds per run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	workdir := flag.String("workdir", ".bench_build", "directory for stores and span files")
	flag.Parse()

	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	store, err := os.MkdirTemp(*workdir, "store-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	settle(*workdir)
	e := env{seed: *seed, seconds: time.Duration(*seconds) * time.Second, workers: runtime.NumCPU(), store: store}
	printMachine(*name, *seed, *trace)
	out, err := w.run(e, *trace == 1)
	if rmErr := os.RemoveAll(store); rmErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: removing store:", rmErr)
	}
	settle(*workdir)
	if err == nil {
		err = out.rep.err
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printResult(out)
}

// printResult prints one line per metric, the problems found, and the
// final JSON line.
func printResult(out *outcome) {
	errRate := ratio(float64(out.failed), float64(out.attempted))
	fmt.Printf("%-28s %14s %-6s %s\n", "metric", "value", "unit", "samples")
	for _, m := range out.rep.metrics {
		fmt.Printf("%-28s %14.6g %-6s %d\n", m.Name, m.Value, m.Unit, m.Samples)
	}
	fmt.Printf("%-28s %14.6g %-6s %d\n", "error_rate", errRate, "ratio", out.attempted)
	for _, p := range out.problems {
		fmt.Println("problem:", p)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	final := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]value, len(out.rep.metrics)),
	}
	for _, m := range out.rep.metrics {
		final.Metrics[m.Name] = value{Value: m.Value, Unit: m.Unit}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// settle commits the file system's pending metadata by syncing dir, so
// neither the deletions of an earlier run nor this run's are written back
// while a later run is timing.
func settle(dir string) {
	if f, err := os.Open(dir); err == nil {
		_ = f.Sync() // best effort: a failed sync only costs steadiness
		f.Close()
	}
}

// spanFile is where a traced run leaves its spans.
func spanFile(e env, workload string) string {
	return filepath.Join(filepath.Dir(e.store), fmt.Sprintf("spans-%s-%d.jsonl", workload, e.seed))
}

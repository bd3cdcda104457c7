// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload a fixed amount of work from a seed, checks the outputs, prints
// every end-to-end metric with its unit and sample count, and ends with one
// JSON line for automated comparison. With -trace 1 it prints per-layer
// metrics instead, from spans recorded around calls into each layer, and
// the tracing overhead. With -steady N it runs the workload N times and
// reports each metric's median, quartiles and spread.
// See README.md.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// deadline bounds one run of the benchmark; the benchmark contract allows
// 180 s.
const deadline = 170 * time.Second

// workloadDef is one workload: a repetition function run in a fresh child
// process, and how many repetitions make a run.
type workloadDef struct {
	name string
	// repSeconds is the nominal host time of one repetition, which turns
	// -seconds into a fixed repetition count (never a deadline).
	repSeconds float64
	run        func(ctx context.Context, seed uint64, rec *Recorder) (*rep, error)
	// classes are the timed operation classes, each with the tail
	// percentile it reports beside its median.
	classes []opClass
	// simRate reports simulated node-seconds per host second.
	simRate bool
	// segStat turns a segment's times across repetitions into the one
	// that counts toward wall_s and cpu_s; see e2eMetrics.
	segStat func([]float64) float64
}

type opClass struct {
	sample, metric string
	tail           float64
}

var workloads = []workloadDef{
	{
		name:       "paper-sweep",
		repSeconds: 1.1,
		run:        paperSweep,
		classes:    []opClass{{"cell", "cell_ms", 90}},
		simRate:    true,
		segStat:    minOf,
	},
	{
		name:       "fleet-epoch",
		repSeconds: 2.6,
		run:        fleetEpochRun,
		classes:    []opClass{{"epoch", "epoch_ms", 90}},
		simRate:    true,
		segStat:    median,
	},
	{
		name:       "serve-api",
		repSeconds: 1.1,
		run:        serveAPI,
		classes:    []opClass{{"read", "read_ms", 99}, {"write", "write_ms", 99}, {"scrape", "scrape_ms", 90}},
		segStat:    median,
	},
}

// A repetition sets up several times, so that setup_s is a median over
// many samples. Set-ups of a few milliseconds (the paper harness, the
// daemon) repeat more than the fleet build, which takes tens.
const (
	setups      = 3
	cheapSetups = 20
)

// rep is what one repetition reports to the parent process. The timed
// phase is cut into segments, fixed units of work (a grid cell, an epoch, a
// block of requests), each with its host and process CPU time.
type rep struct {
	Setup     []float64            `json:"setup_s"`
	SegWall   []float64            `json:"seg_wall_s"`
	SegCPU    []float64            `json:"seg_cpu_s"`
	HeapMB    float64              `json:"heap_mb"`
	SimS      float64              `json:"sim_s"`
	Samples   map[string][]float64 `json:"samples"`
	Layers    map[string]float64   `json:"layers"`
	Hash      string               `json:"hash"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Errors    []string             `json:"errors"`
}

func newRep() *rep {
	return &rep{Samples: map[string][]float64{}, Layers: map[string]float64{}}
}

// fail counts a failed check.
func (r *rep) fail(format string, args ...any) {
	r.Failed++
	if len(r.Errors) < 20 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

// phase measures the wall and process CPU time of a timed phase's
// segments.
type phase struct {
	last    time.Time
	lastCPU time.Duration
}

func startPhase() *phase { return &phase{last: time.Now(), lastCPU: cpuTime()} }

// mark ends the current segment and starts the next.
func (p *phase) mark(r *rep) {
	now, cpu := time.Now(), cpuTime()
	r.SegWall = append(r.SegWall, now.Sub(p.last).Seconds())
	r.SegCPU = append(r.SegCPU, (cpu - p.lastCPU).Seconds())
	p.last, p.lastCPU = now, cpu
}

// cpuTime is the process's user plus system time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func firstErr(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
	n     int
}

func main() {
	var (
		name    = flag.String("workload", "paper-sweep", "workload to run")
		seed    = flag.Uint64("seed", 42, "input seed")
		seconds = flag.Int("seconds", 10, "nominal measuring time; sets the fixed repetition count")
		trace   = flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
		steady  = flag.Int("steady", 0, "run the workload this many times on one seed and report each metric's spread")
		child   = flag.Bool("child", false, "run one repetition and print it as JSON (internal)")
		spans   = flag.String("spans", "", "with -child: file the recorded spans are written to")
	)
	flag.Parse()
	w, ok := lookup(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	var err error
	if *steady > 0 {
		err = steadiness(w, *seed, *seconds, *steady)
	} else {
		ctx, cancel := context.WithTimeout(context.Background(), deadline)
		if *child {
			err = runChild(ctx, w, *seed, *spans)
		} else {
			err = runBench(ctx, w, *seed, *seconds, *trace == 1, os.Stdout)
		}
		cancel()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func lookup(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// runChild runs one repetition, traced when spansPath is set, and prints
// it as one JSON line.
func runChild(ctx context.Context, w workloadDef, seed uint64, spansPath string) error {
	var rec *Recorder
	if spansPath != "" {
		rec = NewRecorder()
	}
	r, err := w.run(ctx, seed, rec)
	if err != nil {
		return err
	}
	if rec != nil {
		r.Layers["trace.spans"] = float64(len(rec.Spans()))
		if err := writeSpans(rec, spansPath); err != nil {
			return err
		}
	}
	return json.NewEncoder(os.Stdout).Encode(r)
}

func writeSpans(rec *Recorder, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := rec.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanDir holds traced runs' spans, under the build directory the
// repository ignores.
const spanDir = ".bench_build/perfbench/spans"

// spawn runs one repetition in a fresh process and decodes its report.
func spawn(ctx context.Context, w workloadDef, seed uint64, traced bool, idx int) (*rep, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-child", "-workload", w.name, "-seed", strconv.FormatUint(seed, 10)}
	if traced {
		args = append(args, "-spans", filepath.Join(spanDir, fmt.Sprintf("%s-seed%d-rep%d.tsv", w.name, seed, idx)))
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s repetition %d: %w", w.name, idx, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	r := newRep()
	if err := json.Unmarshal(lines[len(lines)-1], r); err != nil {
		return nil, fmt.Errorf("%s repetition %d: decoding report: %w", w.name, idx, err)
	}
	return r, nil
}

// repetitions is the fixed repetition count for a nominal measuring time.
func (w workloadDef) repetitions(seconds int) int {
	return max(3, int(math.Round(float64(seconds)/w.repSeconds)))
}

// result is one run's outcome.
type result struct {
	e2e, layers []metric
	attempted   int
	failed      int
	errors      []string
}

// check counts one check of the run, failed unless ok.
func (res *result) check(ok bool, msg string) {
	res.attempted++
	if !ok {
		res.failed++
		res.errors = append(res.errors, msg)
	}
}

// measure runs the repetitions of one run. A traced run alternates
// untraced and traced repetitions, so both see the same machine state.
func measure(ctx context.Context, w workloadDef, seed uint64, seconds int, traced bool) (*result, error) {
	n := w.repetitions(seconds)
	var plain, withTrace []*rep
	for i := 0; i < n; i++ {
		tr := traced && i%2 == 1
		r, err := spawn(ctx, w, seed, tr, i)
		if err != nil {
			return nil, err
		}
		if tr {
			withTrace = append(withTrace, r)
		} else {
			plain = append(plain, r)
		}
	}
	res := &result{}
	all := append(append([]*rep(nil), plain...), withTrace...)
	for _, r := range all {
		res.attempted += r.Attempted
		res.failed += r.Failed
		res.errors = append(res.errors, r.Errors...)
	}
	// Every repetition of a seed, traced or not, must cut the work into
	// the same segments and, where the workload hashes its outputs,
	// simulate the same thing.
	sameSegs, sameHash := true, true
	for _, r := range all[1:] {
		sameSegs = sameSegs && len(r.SegWall) == len(all[0].SegWall)
		sameHash = sameHash && r.Hash == all[0].Hash
	}
	res.check(sameSegs, "repetitions cut the work into different segment counts")
	if all[0].Hash != "" {
		res.check(sameHash, "output hashes differ across repetitions")
	}
	res.e2e = e2eMetrics(w, plain)
	if traced {
		res.layers = layerMetrics(w, plain, withTrace)
	}
	return res, nil
}

// e2eMetrics aggregates untraced repetitions. Every repetition of a seed
// does exactly the same work in the same segments, so they differ only by
// interference from the host, which only ever adds time. The time of the
// fixed work is the sum over its segments of each segment's time across
// the repetitions, taken by the workload's segStat: the fastest where the
// segments are a few milliseconds (paper-sweep's cells), short enough that
// each lands in a quiet moment of the host in some repetition; the median
// where they are tens of milliseconds (fleet-epoch's epochs, serve-api's
// request blocks), where the fastest of a few dozen is itself noisy.
// Set-up and heap are medians across repetitions, and operation latencies
// are percentiles over the pooled samples.
func e2eMetrics(w workloadDef, reps []*rep) []metric {
	var setup, heap []float64
	pooled := map[string][]float64{}
	for _, r := range reps {
		setup = append(setup, r.Setup...)
		heap = append(heap, r.HeapMB)
		for k, v := range r.Samples {
			pooled[k] = append(pooled[k], v...)
		}
	}
	n := len(reps)
	wall := w.segments(reps, func(r *rep) []float64 { return r.SegWall })
	out := []metric{
		{"setup_s", median(setup), "s", len(setup)},
		{"wall_s", wall, "s", n},
		{"cpu_s", w.segments(reps, func(r *rep) []float64 { return r.SegCPU }), "s", n},
		{"heap_mb", median(heap), "MB", n},
	}
	if w.simRate {
		out = append(out, metric{"sim_s_per_host_s", reps[0].SimS / wall, "1", n})
	}
	for _, c := range w.classes {
		s := sortedCopy(pooled[c.sample])
		if len(s) == 0 {
			continue
		}
		out = append(out, metric{c.metric + "_p50", nearestRank(s, 50), "ms", len(s)})
		if p, ok := tailPercentile(len(s), []float64{c.tail}); ok {
			out = append(out, metric{fmt.Sprintf("%s_p%g", c.metric, p), nearestRank(s, p), "ms", len(s)})
		}
	}
	return out
}

// segments sums, over the segments the repetitions share, each segment's
// value across the repetitions as segStat takes it.
func (w workloadDef) segments(reps []*rep, segs func(*rep) []float64) float64 {
	rows := make([][]float64, len(reps))
	for i, r := range reps {
		rows[i] = segs(r)
	}
	return sumOfSegments(rows, w.segStat)
}

// layerMetrics reports each per-layer number as the median over the traced
// repetitions, plus the tracing overhead: the traced minus the untraced
// wall time, each aggregated as wall_s is.
func layerMetrics(w workloadDef, plain, traced []*rep) []metric {
	vals := map[string][]float64{}
	for _, r := range traced {
		for k, v := range r.Layers {
			vals[k] = append(vals[k], v)
		}
	}
	names := make([]string, 0, len(vals))
	for k := range vals {
		names = append(names, k)
	}
	sort.Strings(names)
	var out []metric
	for _, k := range names {
		out = append(out, metric{k, median(vals[k]), layerUnit(k), len(vals[k])})
	}
	if len(plain) > 0 && len(traced) > 0 {
		wall := func(r *rep) []float64 { return r.SegWall }
		out = append(out, metric{"trace.overhead_s", w.segments(traced, wall) - w.segments(plain, wall), "s", len(traced)})
	}
	return out
}

// layerUnit reads a layer metric's unit from its name suffix.
func layerUnit(name string) string {
	for _, u := range []struct{ suffix, unit string }{
		{"_ms_per_sim_s", "ms/s"}, {"_kb_per_sim_s", "KB/s"}, {"_ms_p50", "ms"},
		{"_us", "us"}, {"_ns", "ns"}, {"_s", "s"}, {"_ratio", "1"}, {"_frac", "1"},
	} {
		if strings.HasSuffix(name, u.suffix) {
			return u.unit
		}
	}
	if strings.Contains(name, "_us.") {
		return "us"
	}
	return "count"
}

// runBench runs the benchmark once and prints its report: one line per
// metric, then the JSON line.
func runBench(ctx context.Context, w workloadDef, seed uint64, seconds int, traced bool, out *os.File) error {
	res, err := measure(ctx, w, seed, seconds, traced)
	if err != nil {
		return err
	}
	spec, err := readSpec(specFile)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(out)
	fmt.Fprintf(bw, "# perfbench %s seed=%d repetitions=%d trace=%v\n", w.name, seed, w.repetitions(seconds), traced)
	shown, gated := res.e2e, spec.EndToEnd
	if traced {
		shown, gated = res.layers, spec.PerLayer
	}
	for _, m := range shown {
		fmt.Fprintf(bw, "%-36s %14.6g %-6s n=%d\n", m.name, m.value, m.unit, m.n)
	}
	fmt.Fprintf(bw, "%-36s %14.6g %-6s n=%d\n", "fail_frac", float64(res.failed)/float64(res.attempted), "1", res.attempted)
	for _, e := range res.errors {
		fmt.Fprintln(bw, "# failed:", e)
	}
	// The JSON line carries exactly the metrics BENCHMARK.json lists.
	metrics := map[string]any{}
	for _, g := range gated {
		for _, m := range shown {
			if m.name == g.Name {
				metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit}
			}
		}
		if metrics[g.Name] == nil {
			return fmt.Errorf("%s lists %s, which %s did not measure", specFile, g.Name, w.name)
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   res.failed == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(bw, "%s\n", line)
	return bw.Flush()
}

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
)

// defaultBound applies to metrics BENCHMARK.json does not gate: the largest
// bound the benchmark allows any metric.
const defaultBound = 0.25

// specFile is the benchmark's definition, at the repository root: the
// metrics the JSON line carries and the end-to-end bounds.
const specFile = "BENCHMARK.json"

// specMetric is one metric entry of BENCHMARK.json.
type specMetric struct {
	Name  string  `json:"name"`
	Bound float64 `json:"bound"`
}

type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func readSpec(path string) (benchSpec, error) {
	var spec benchSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return spec, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// steadiness runs the workload n times and prints, for each end-to-end
// metric, the median, the quartiles and the spread (q3-q1)/median, flagging
// any spread past the metric's bound. Every run uses the same seed, so the
// spread is the host's noise alone.
func steadiness(w workloadDef, seed uint64, seconds, n int) error {
	spec, err := readSpec(specFile)
	if err != nil {
		return err
	}
	bounds := map[string]float64{}
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	values := map[string][]float64{}
	var order []string
	units := map[string]string{}
	failed := 0
	for i := 0; i < n; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), deadline)
		res, err := measure(ctx, w, seed, seconds, false)
		cancel()
		if err != nil {
			return err
		}
		failed += res.failed
		for _, m := range res.e2e {
			if _, ok := values[m.name]; !ok {
				order = append(order, m.name)
				units[m.name] = m.unit
			}
			values[m.name] = append(values[m.name], m.value)
		}
		fmt.Fprintf(os.Stderr, "perfbench: steadiness run %d/%d done\n", i+1, n)
	}
	fmt.Printf("# steadiness %s: %d runs, seed %d, %d failed checks\n", w.name, n, seed, failed)
	fmt.Printf("%-20s %12s %12s %12s %8s %6s %s\n", "metric", "median", "q1", "q3", "spread", "bound", "unit")
	past := 0
	for _, name := range order {
		v := values[name]
		q1, q3 := quartiles(v)
		b, gated := bounds[name]
		if !gated {
			b = defaultBound
		}
		sp := spread(v)
		flag := ""
		switch {
		case sp > b:
			flag = "  PAST BOUND"
			past++
		case sp > b/3:
			flag = "  above a third of bound"
		}
		fmt.Printf("%-20s %12.6g %12.6g %12.6g %8.4f %6.3f %s%s\n", name, median(v), q1, q3, sp, b, units[name], flag)
	}
	if past > 0 {
		fmt.Printf("# %d metric(s) past their bound\n", past)
	}
	return nil
}

package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"pupil/internal/control"
	"pupil/internal/experiment"
	"pupil/internal/machine"
	"pupil/internal/report"
	"pupil/internal/sweep"
	"pupil/internal/workload"
)

// goldenTable3 is the committed quick-grid Table 3 at seed 42, relative to
// the repository root the benchmark runs from.
const goldenTable3 = "internal/experiment/testdata/golden/table3_quick.csv"

// paperSweep runs the paper's quick single-application grid (Table 3,
// Figs. 3-5) and then its multi-application grid (Tables 5-6) on one sweep
// worker, in a fresh process: experiment memoizes each grid per Config, so
// a second sweep in the same process would only time a map lookup.
func paperSweep(ctx context.Context, seed uint64, rec *Recorder) (*rep, error) {
	cfg := experiment.Config{Seed: seed, Quick: true}
	r := newRep()

	// Set-up is the sweep harness build: the platform and the trained
	// Soft-Modeling models, replayed from their public constructors (the
	// sweep builds its own inside the timed phase).
	var sm *control.SoftModeling
	for i := 0; i < cheapSetups; i++ {
		runtime.GC()
		t0 := time.Now()
		plat := machine.E52690Server()
		m, err := control.TrainSoftModeling(plat, cfg.Seed^0x50f7)
		if err != nil {
			return nil, err
		}
		r.Setup = append(r.Setup, time.Since(t0).Seconds())
		sm = m
	}

	// Each cell is a segment of the timed phase.
	timer := &cellTimer{now: time.Now, rec: rec}
	phase := startPhase()
	opts := experiment.RunOpts{Parallel: 1, Progress: func(done, total int, label string) {
		timer.observe(done, total, label)
		phase.mark(r)
	}}
	timer.start()
	_, errS := experiment.SingleAppSweepOpts(ctx, cfg, opts)
	_, errM := experiment.MultiAppSweepOpts(ctx, cfg, opts)
	phase.mark(r)
	if err := firstErr(errS, errM); err != nil {
		return nil, err
	}
	r.HeapMB = float64(liveHeap()) / (1 << 20)

	for _, g := range timer.gaps {
		r.Samples["cell"] = append(r.Samples["cell"], ms(g.dur))
		r.Attempted++
		if cellKind(g.label) == "run" {
			r.SimS += cellSimSeconds(cfg, g.label)
		}
	}

	// Correctness: the rendered tables hash identically on every
	// repetition of a seed, and Table 3 matches the golden at seed 42.
	t3, err3 := experiment.Table3(cfg)
	t5, err5 := experiment.Table5(cfg)
	if err := firstErr(err3, err5); err != nil {
		return nil, err
	}
	csv3, csv5 := goldenCSV(t3), goldenCSV(t5)
	sum := sha256.Sum256([]byte(csv3 + csv5))
	r.Hash = hex.EncodeToString(sum[:])
	if seed == 42 {
		r.Attempted++
		want, err := os.ReadFile(goldenTable3)
		if err != nil || string(want) != csv3 {
			r.fail("table 3 at seed 42 differs from %s (read error: %v)", goldenTable3, err)
		}
	}

	if rec != nil {
		if err := paperLayers(ctx, cfg, sm, rec, r); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// goldenCSV renders a table the way the committed goldens store it.
func goldenCSV(t *report.Table) string { return fmt.Sprintf("# %s\n%s", t.Title, t.CSV()) }

// cellSimSeconds is the simulated time a technique-run cell covers. Its
// label is tech/app/cap on the single-application grid and
// scenario/tech/mix/cap on the multi-application grid.
func cellSimSeconds(cfg experiment.Config, label string) float64 {
	parts := strings.Split(label, "/")
	tech := parts[0]
	if len(parts) == 4 {
		tech = parts[1]
	}
	return cfg.Duration(tech).Seconds()
}

// paperLayers reports the experiment layer from the cell spans and replays
// a slice of the grid's scenarios (every technique at every cap, on one
// compute-bound and one memory-bound application) for the tick layers.
func paperLayers(ctx context.Context, cfg experiment.Config, sm *control.SoftModeling, rec *Recorder, r *rep) error {
	probe := &layerProbe{rec: rec, plat: machine.E52690Server(), sm: sm}
	for _, app := range []string{"x264", "STREAM"} {
		prof, err := workload.ByName(app)
		if err != nil {
			return err
		}
		specs := []workload.Spec{{Profile: prof, Threads: 32}}
		for _, capW := range cfg.Caps() {
			for _, tech := range experiment.Techniques() {
				err := probe.run(ctx, replay{
					specs: specs, tech: tech, capW: capW, simDur: cfg.Duration(tech),
					seed: cfg.Seed ^ sweep.Seed(tech, app, fmt.Sprintf("%.0f", capW)),
				})
				if err != nil {
					return err
				}
			}
		}
	}
	probe.metrics(r.Layers)
	stats := byName(rec.Spans())
	coreMetrics(stats, r.Layers)
	for _, kind := range []string{"run", "oracle", "char"} {
		if st := stats["experiment."+kind]; st != nil {
			r.Layers["experiment."+kind+"_cell_ms_p50"] = median(st.total) / 1000
			r.Layers["experiment."+kind+"_cells"] = float64(st.n)
		}
	}
	return nil
}

package main

import (
	"strings"
	"time"
)

// cellGap is one grid cell's time: the gap between consecutive progress
// callbacks of a one-worker sweep, which is exactly that cell's run.
type cellGap struct {
	label string
	dur   time.Duration
}

// cellTimer turns sweep progress callbacks into per-cell times. It is only
// meaningful with one worker: with more, a gap spans several cells that ran
// side by side. now is the clock (time.Now outside tests).
type cellTimer struct {
	now  func() time.Time
	last time.Time
	gaps []cellGap
	// rec, when set, also records each cell as a span.
	rec *Recorder
}

// start marks the beginning of a sweep: the first cell's gap runs from
// here.
func (t *cellTimer) start() { t.last = t.now() }

// observe is a sweep.Progress callback.
func (t *cellTimer) observe(_, _ int, label string) {
	now := t.now()
	d := now.Sub(t.last)
	t.last = now
	t.gaps = append(t.gaps, cellGap{label: label, dur: d})
	if t.rec != nil {
		// The cell ended now and began d ago: record it after the fact.
		id := t.rec.Begin("experiment."+cellKind(label), 0, 0)
		t.rec.backdate(id, d)
	}
}

// cellKind classifies a grid cell by its label: "char" for an uncapped
// characterization, "oracle" for an Optimal oracle search (including the
// multi-application isolated rates) and "run" for a capped technique run.
func cellKind(label string) string {
	switch {
	case strings.HasPrefix(label, "uncapped/"):
		return "char"
	case strings.HasPrefix(label, "optimal/"), strings.HasPrefix(label, "alone/"):
		return "oracle"
	}
	return "run"
}

package main

import (
	"math"
	"testing"
	"time"
)

func TestNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {99, 10}, {100, 10}, {10, 1}, {0.1, 1}, {55, 6},
	} {
		if got := nearestRank(s, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	cands := []float64{90, 99, 99.9}
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{5, 0, false},    // p90 leaves 0 beyond
		{100, 90, true},  // p90 rank 90 leaves 10; p99 leaves 1
		{999, 90, true},  // p99 rank 990 leaves 9
		{1000, 99, true}, // p99 rank 990 leaves 10
		{10000, 99.9, true},
	} {
		p, ok := tailPercentile(c.n, cands)
		if ok != c.ok || p != c.want {
			t.Errorf("n=%d: got p%v ok=%v, want p%v ok=%v", c.n, p, ok, c.want, c.ok)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q3 != 2.25 {
		t.Fatalf("two-sample quartiles = %v, %v; want 0.75, 2.25", q1, q3)
	}
	if got := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); math.Abs(got-5.5/5.5) > 1e-12 {
		t.Fatalf("spread = %v, want 1", got)
	}
}

func span(id, parent int64, start, end time.Duration) Span {
	return Span{ID: id, Parent: parent, Name: "s", Start: start, End: end}
}

func TestSelfTimeNestedAndOverlapping(t *testing.T) {
	spans := []Span{
		span(1, 0, 0, 100),
		// Two children overlapping each other on [20,30): covered once.
		span(2, 1, 10, 30),
		span(3, 1, 20, 40),
		// A disjoint child.
		span(4, 1, 60, 70),
		// A child running past its parent's end: only [90,100) counts.
		span(5, 1, 90, 120),
		// A grandchild counts against its own parent, not the root.
		span(6, 2, 12, 18),
	}
	self := SelfTimes(spans)
	want := map[int64]time.Duration{1: 100 - 30 - 10 - 10, 2: 20 - 6, 3: 20, 4: 10, 5: 30, 6: 6}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self = %v, want %v", id, self[id], w)
		}
	}
}

func TestRecorderNilIsNoop(t *testing.T) {
	var r *Recorder
	id := r.Begin("x", 0, 0)
	if d := r.End(id); id != 0 || d != 0 || r.Spans() != nil {
		t.Fatal("nil recorder recorded something")
	}
}

func TestCellTimerOneWorkerGaps(t *testing.T) {
	clock := time.Unix(0, 0)
	tm := &cellTimer{now: func() time.Time { return clock }, rec: NewRecorder()}
	tm.start()
	steps := []struct {
		label string
		took  time.Duration
	}{
		{"uncapped/x264", 2 * time.Millisecond},
		{"optimal/x264/60W", 5 * time.Millisecond},
		{"RAPL/x264/60W", 7 * time.Millisecond},
		{"alone/x264/16t", 3 * time.Millisecond},
		{"cooperative/PUPiL/mix2/60W", 11 * time.Millisecond},
	}
	for i, s := range steps {
		clock = clock.Add(s.took)
		tm.observe(i+1, len(steps), s.label)
	}
	kinds := []string{"char", "oracle", "run", "oracle", "run"}
	if len(tm.gaps) != len(steps) {
		t.Fatalf("%d gaps, want %d", len(tm.gaps), len(steps))
	}
	for i, g := range tm.gaps {
		if g.dur != steps[i].took || g.label != steps[i].label {
			t.Errorf("gap %d = %v %q, want %v %q", i, g.dur, g.label, steps[i].took, steps[i].label)
		}
		if k := cellKind(g.label); k != kinds[i] {
			t.Errorf("kind(%q) = %s, want %s", g.label, k, kinds[i])
		}
	}
	spans := tm.rec.Spans()
	if len(spans) != len(steps) {
		t.Fatalf("%d spans, want %d", len(spans), len(steps))
	}
	for i, s := range spans {
		if s.Dur() != steps[i].took {
			t.Errorf("span %d lasted %v, want %v", i, s.Dur(), steps[i].took)
		}
	}
}

func TestSumOfSegments(t *testing.T) {
	rows := [][]float64{
		{3, 1, 5, 9},
		{2, 4, 5},
		{6, 2, 1},
	}
	// Position by position over the common length 3.
	if got := sumOfSegments(rows, minOf); got != 2+1+1 {
		t.Fatalf("sum of minima = %v, want 4", got)
	}
	if got := sumOfSegments(rows, median); got != 3+2+5 {
		t.Fatalf("sum of medians = %v, want 10", got)
	}
	if got := sumOfSegments(rows[:1], minOf); got != 18 {
		t.Fatalf("one row: %v, want its sum 18", got)
	}
	if got := sumOfSegments(nil, minOf); got != 0 {
		t.Fatalf("no rows: %v, want 0", got)
	}
}

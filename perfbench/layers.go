package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"pupil/internal/cluster"
	"pupil/internal/control"
	"pupil/internal/core"
	"pupil/internal/driver"
	"pupil/internal/faults"
	"pupil/internal/machine"
	"pupil/internal/pipeline"
	"pupil/internal/rapl"
	"pupil/internal/sim"
	"pupil/internal/system"
	"pupil/internal/telemetry"
	"pupil/internal/workload"
)

// This file times the layers that are reached only inside a session,
// through the interfaces a scenario already accepts (core.Controller and
// the core.Env it receives, cluster.Policy, pipeline.Sink), and replays the
// layers that have no seam (rapl, system/machine, telemetry, faults) on the
// same workload's inputs.

// configAt is one SetConfig request as the controller issued it.
type configAt struct {
	t   time.Duration
	cfg machine.Config
}

// tracedController delegates to a controller, recording a "core.step"
// span around Start and Step and handing it a tracedEnv, whose calls
// become child spans. A controller is stepped from one goroutine at a
// time, so cur needs no lock.
type tracedController struct {
	inner core.Controller
	env   tracedEnv
}

func newTracedController(inner core.Controller, rec *Recorder) *tracedController {
	return &tracedController{inner: inner, env: tracedEnv{rec: rec}}
}

func (c *tracedController) Name() string          { return c.inner.Name() }
func (c *tracedController) Period() time.Duration { return c.inner.Period() }

func (c *tracedController) Start(env core.Env) {
	c.env.inner = env
	c.env.cur = c.env.rec.Begin("core.step", c.env.parent, 0)
	c.inner.Start(&c.env)
	c.env.rec.End(c.env.cur)
}

func (c *tracedController) Step(env core.Env) {
	c.env.inner = env
	c.env.cur = c.env.rec.Begin("core.step", c.env.parent, 0)
	c.inner.Step(&c.env)
	c.env.rec.End(c.env.cur)
}

// tracedEnv delegates to the session's Env, recording the act and observe
// calls as spans under the current step, and the configuration sequence
// for the evaluator replay.
type tracedEnv struct {
	inner   core.Env
	rec     *Recorder
	parent  int64 // span the steps nest under (the session advance)
	cur     int64
	configs []configAt
}

func (e *tracedEnv) Now() time.Duration          { return e.inner.Now() }
func (e *tracedEnv) CapWatts() float64           { return e.inner.CapWatts() }
func (e *tracedEnv) Platform() *machine.Platform { return e.inner.Platform() }
func (e *tracedEnv) Config() machine.Config      { return e.inner.Config() }
func (e *tracedEnv) RAPLSupported() bool         { return e.inner.RAPLSupported() }

func (e *tracedEnv) SetConfig(cfg machine.Config) time.Duration {
	e.configs = append(e.configs, configAt{t: e.inner.Now(), cfg: cfg.Clone()})
	id := e.rec.Begin("core.setconfig", e.cur, 0)
	d := e.inner.SetConfig(cfg)
	e.rec.End(id)
	return d
}

func (e *tracedEnv) SetRAPL(perSocket []float64) {
	id := e.rec.Begin("core.setrapl", e.cur, 0)
	e.inner.SetRAPL(perSocket)
	e.rec.End(id)
}

func (e *tracedEnv) Feedback(window time.Duration) core.Feedback {
	id := e.rec.Begin("core.feedback", e.cur, 0)
	fb := e.inner.Feedback(window)
	e.rec.End(id)
	return fb
}

// tracedPolicy delegates to a cluster policy, recording each rebalance.
type tracedPolicy struct {
	inner cluster.Policy
	rec   *Recorder
}

func (p tracedPolicy) Name() string { return p.inner.Name() }

func (p tracedPolicy) Rebalance(next, assigned, meanPower []float64) {
	id := p.rec.Begin("cluster.policy", 0, 0)
	p.inner.Rebalance(next, assigned, meanPower)
	p.rec.End(id)
}

// timedSink delegates to a pipeline sink, recording each batch write and
// its size. The router calls a sink from one worker goroutine.
type timedSink struct {
	inner   pipeline.Sink
	rec     *Recorder
	batches []float64
}

func (s *timedSink) Write(batch []pipeline.Sample) error {
	id := s.rec.Begin("pipeline.sink_write", 0, 0)
	err := s.inner.Write(batch)
	s.rec.End(id)
	s.batches = append(s.batches, float64(len(batch)))
	return err
}

func (s *timedSink) Flush() error { return s.inner.Flush() }
func (s *timedSink) Close() error { return s.inner.Close() }

// replay is one node scenario of a workload, rebuilt by the benchmark so
// its layers can be timed.
type replay struct {
	specs  []workload.Spec
	tech   string
	capW   float64
	simDur time.Duration
	seed   uint64
}

// newController builds a technique's controller the way the experiment
// harness and pupild do.
func newController(tech string, plat *machine.Platform, sm *control.SoftModeling) (core.Controller, error) {
	switch tech {
	case "RAPL":
		return control.NewRAPLOnly(), nil
	case "Soft-DVFS":
		return control.NewSoftDVFS(), nil
	case "Soft-Modeling":
		return sm.Clone(), nil
	case "Soft-Decision":
		return core.NewSoftDecision(core.DefaultOrdered(plat)), nil
	case "PUPiL":
		return core.NewPUPiL(core.DefaultOrdered(plat)), nil
	}
	return nil, fmt.Errorf("unknown technique %q", tech)
}

// layerProbe accumulates the replayed layers' timings across scenarios.
type layerProbe struct {
	rec  *Recorder
	plat *machine.Platform
	sm   *control.SoftModeling

	advance           time.Duration
	simS              float64
	retainedKB        float64
	evalHit, evalMiss time.Duration
	hits, misses      int
	sockPower         time.Duration
	sockCalls         int
	raplTick          time.Duration
	raplTicks         int
	sensorTick        time.Duration
	sensorTicks       int
	filter            time.Duration
	filters           int
	tap               time.Duration
	taps              int
}

// run replays one scenario: a session advanced in one-second chunks under
// a traced controller, then the evaluator, power model, firmware, sensor,
// filter and fault tap fed with the configurations and power it produced.
func (p *layerProbe) run(ctx context.Context, r replay) error {
	inner, err := newController(r.tech, p.plat, p.sm)
	if err != nil {
		return err
	}
	ctrl := newTracedController(inner, p.rec)
	sess, err := driver.NewSession(driver.Scenario{
		Platform: p.plat, Specs: r.specs, CapWatts: r.capW, Controller: ctrl,
		Seed: r.seed,
	})
	if err != nil {
		return err
	}
	for done := time.Duration(0); done < r.simDur; done += time.Second {
		step := min(time.Second, r.simDur-done)
		id := p.rec.Begin("driver.advance", 0, 0)
		ctrl.env.parent = id
		t0 := time.Now()
		err := sess.AdvanceContext(ctx, step)
		p.advance += time.Since(t0)
		p.rec.End(id)
		if err != nil {
			return err
		}
	}
	p.simS += r.simDur.Seconds()
	if err := p.retention(ctx, r); err != nil {
		return err
	}

	apps, err := workload.NewInstances(r.specs)
	if err != nil {
		return err
	}
	powers := p.replayEval(system.NewEvaluator(p.plat, apps), ctrl.env.configs, r.simDur)
	p.replayFirmware(r.capW, r.simDur, r.seed)
	p.replaySensor(powers, r.seed)
	return nil
}

// retention adds the live heap an untraced session of the scenario gains
// while it runs: the same scenario under a plain controller, so that none
// of the benchmark's own spans or recorded configurations is counted.
func (p *layerProbe) retention(ctx context.Context, r replay) error {
	ctrl, err := newController(r.tech, p.plat, p.sm)
	if err != nil {
		return err
	}
	sess, err := driver.NewSession(driver.Scenario{
		Platform: p.plat, Specs: r.specs, CapWatts: r.capW, Controller: ctrl,
		Seed: r.seed,
	})
	if err != nil {
		return err
	}
	heap0 := liveHeap()
	if err := sess.AdvanceContext(ctx, r.simDur); err != nil {
		return err
	}
	p.retainedKB += (float64(liveHeap()) - float64(heap0)) / 1024
	runtime.KeepAlive(sess)
	return nil
}

// replayEval re-evaluates, at the session's 10 ms evaluation cadence, the
// configuration the controller had last requested, timing cache hits
// (configuration unchanged since the previous call) apart from misses, and
// then the per-socket power model on every evaluated load. It returns the
// evaluated machine power, the sensor replay's source.
func (p *layerProbe) replayEval(ev *system.Evaluator, configs []configAt, dur time.Duration) []float64 {
	if len(configs) == 0 {
		return nil
	}
	const tick = 10 * time.Millisecond
	type evalAt struct {
		cfg   machine.Config
		loads []machine.SocketLoad
	}
	var evals []evalAt
	var powers []float64
	next, cur := 0, machine.Config{}
	for t := time.Duration(0); t < dur; t += tick {
		prev := cur
		for next < len(configs) && configs[next].t <= t {
			cur = configs[next].cfg
			next++
		}
		hit := len(evals) > 0 && cur.Equal(prev)
		t0 := time.Now()
		e := ev.EvalAt(cur, t, nil)
		d := time.Since(t0)
		if hit {
			p.evalHit += d
			p.hits++
		} else {
			p.evalMiss += d
			p.misses++
		}
		evals = append(evals, evalAt{cfg: cur, loads: append([]machine.SocketLoad(nil), e.Loads...)})
		powers = append(powers, e.PowerTotal)
	}
	t0 := time.Now()
	sink := 0.0
	for _, e := range evals {
		for s := range e.loads {
			sink += p.plat.SocketPower(e.cfg, s, e.loads[s])
			p.sockCalls++
		}
	}
	p.sockPower += time.Since(t0)
	runtime.KeepAlive(sink)
	return powers
}

// stubActuator stands in for the machine under the firmware: socket power
// follows the operating point on a cube law between idle and TDP.
type stubActuator struct {
	plat *machine.Platform
	frac []float64
}

func (a *stubActuator) SocketPower(s int) float64 {
	f := a.frac[s]
	return a.plat.SocketParked + (a.plat.SocketTDP-a.plat.SocketParked)*f*f*f
}

func (a *stubActuator) SetOperatingPoint(s, freqIdx int, duty float64) {
	a.frac[s] = duty * float64(freqIdx+1) / float64(a.plat.NumFreqSettings())
}

// replayFirmware ticks one socket's RAPL firmware at the scenario's
// per-socket cap for the scenario's simulated duration.
func (p *layerProbe) replayFirmware(capW float64, dur time.Duration, seed uint64) {
	act := &stubActuator{plat: p.plat, frac: make([]float64, p.plat.Sockets)}
	for i := range act.frac {
		act.frac[i] = 1 // the firmware starts at the top operating point
	}
	fw := rapl.NewFirmware(p.plat, 0, act, rapl.DefaultConfig(), sim.NewRNG(seed))
	fw.SetCap(0, capW/float64(p.plat.Sockets))
	n := int(dur / fw.Period())
	t0 := time.Now()
	for i := 1; i <= n; i++ {
		fw.Tick(time.Duration(i) * fw.Period())
	}
	p.raplTick += time.Since(t0)
	p.raplTicks += n
}

// replaySensor ticks a power sensor with the session's default noise over
// the replayed power trace, behind an empty-profile fault tap as the
// session installs it, then times the tap alone and the 3-sigma filter on
// a full window.
func (p *layerProbe) replaySensor(powers []float64, seed uint64) {
	if len(powers) == 0 {
		return
	}
	const period, windowLen = 10 * time.Millisecond, 1024
	i := 0
	src := func() float64 { return powers[i%len(powers)] }
	rng := sim.NewRNG(seed)
	sns := telemetry.NewSensor("power", src, period, windowLen, telemetry.DefaultPowerNoise(), rng.Fork("power-sensor"))
	tap := faults.NewInjector(nil, rng.Fork("faults")).SensorTap(faults.TargetPowerSensor)
	sns.SetTap(tap)
	t0 := time.Now()
	for ; i < len(powers); i++ {
		sns.Tick(time.Duration(i) * period)
	}
	p.sensorTick += time.Since(t0)
	p.sensorTicks += len(powers)

	sink := 0.0
	t0 = time.Now()
	for j := range powers {
		v, _ := tap(time.Duration(j)*period, powers[j])
		sink += v
	}
	p.tap += time.Since(t0)
	p.taps += len(powers)

	vals := sns.Window().Since(0)
	const filterCalls = 64
	t0 = time.Now()
	for j := 0; j < filterCalls; j++ {
		m, _ := telemetry.SigmaFilter(vals, 3)
		sink += m
	}
	p.filter += time.Since(t0)
	p.filters += filterCalls
	runtime.KeepAlive(sink)
}

// metrics reports the replayed layers' numbers.
func (p *layerProbe) metrics(out map[string]float64) {
	per := func(d time.Duration, n int, unit time.Duration) float64 {
		if n == 0 {
			return 0
		}
		return float64(d) / float64(n) / float64(unit)
	}
	out["driver.host_ms_per_sim_s"] = ms(p.advance) / p.simS
	out["driver.trace_kb_per_sim_s"] = p.retainedKB / p.simS
	out["system.eval_miss_us"] = per(p.evalMiss, p.misses, time.Microsecond)
	out["system.eval_hit_us"] = per(p.evalHit, p.hits, time.Microsecond)
	out["system.eval_hit_ratio"] = float64(p.hits) / float64(max(1, p.hits+p.misses))
	out["machine.socket_power_us"] = per(p.sockPower, p.sockCalls, time.Microsecond)
	out["rapl.tick_us"] = per(p.raplTick, p.raplTicks, time.Microsecond)
	out["telemetry.sensor_tick_us"] = per(p.sensorTick, p.sensorTicks, time.Microsecond)
	out["telemetry.filter_us"] = per(p.filter, p.filters, time.Microsecond)
	out["faults.empty_tap_ns"] = per(p.tap, p.taps, time.Nanosecond)
}

// coreMetrics reports the controller layer from the recorded core spans:
// step self time (its Env calls excluded), feedback time, and call counts.
func coreMetrics(stats map[string]*spanStats, out map[string]float64) {
	mean := func(v []float64) float64 {
		if len(v) == 0 {
			return 0
		}
		s := 0.0
		for _, x := range v {
			s += x
		}
		return s / float64(len(v))
	}
	get := func(name string) *spanStats {
		if st := stats[name]; st != nil {
			return st
		}
		return &spanStats{}
	}
	out["core.step_us"] = mean(get("core.step").self)
	out["core.feedback_us"] = mean(get("core.feedback").total)
	out["core.steps"] = float64(get("core.step").n)
	out["core.setconfig_calls"] = float64(get("core.setconfig").n)
	out["core.setrapl_calls"] = float64(get("core.setrapl").n)
}

// liveHeap is the live heap in bytes after a forced collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

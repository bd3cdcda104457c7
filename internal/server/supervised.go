package server

import (
	"context"
	"fmt"
	"log"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"pupil/internal/pipeline"
	"pupil/internal/telemetry"
)

// State is a node's or cluster's lifecycle phase.
type State string

// Lifecycle states.
const (
	StateRunning State = "running" // step loop advancing
	StateDone    State = "done"    // reached MaxSimS; state still queryable
	StateStopped State = "stopped" // cancelled by delete or shutdown
	StateFailed  State = "failed"  // a step panicked or errored; last state queryable
)

// kind names what a supervised unit is, for log lines, errors and the
// fail reason of a panic escaping a step.
type kind struct {
	name  string
	panic string
}

var (
	nodeKind    = kind{name: "node", panic: "session panic"}
	clusterKind = kind{name: "cluster", panic: "cluster panic"}
)

// stepper is what a kind supplies to the supervised core: its locked step,
// its status projection, and its pipeline families.
type stepper[S any] interface {
	// step advances one increment with the core's mu held, marks the unit
	// done once maxSim is reached, refreshes the published status view, and
	// returns the sample to fan out. An error fails the unit with the
	// error's text as its reason.
	step() (S, error)
	// refresh republishes the status view after a mutation; mu is held.
	refresh()
	// appendFamilies appends the sample's metric families to b.
	appendFamilies(b []pipeline.Sample, smp S) []pipeline.Sample
}

// supervised is the lifecycle core a Node and a Cluster share: one
// goroutine runs the step loop, paced by a wall-clock ticker or free
// running, under a mutex that serializes steps against mutations; each
// step's sample fans out to stream subscribers over bounded rings and its
// metric families go through the manager's router; a panic escaping a step
// fails only this unit, its last coherent status still served.
type supervised[S any] struct {
	kind kind
	id   string
	k    stepper[S]

	tickReal time.Duration // wall-clock step interval; 0 free-runs
	maxSim   time.Duration // simulated time at which the unit is done; 0 never

	mu         sync.Mutex // guards state, failReason, and the kind's simulation
	state      State
	failReason string

	// pubMu guards the published status view Status serves without waiting
	// on mu: a free-running node or a fleet-scale cluster holds mu almost
	// continuously, and before this split every status read and /metrics
	// scrape serialized against the simulation. The kinds keep their own
	// projection under it beside pubState and pubFail.
	pubMu    sync.Mutex
	pubState State
	pubFail  string

	epoch  atomic.Uint64
	fan    *telemetry.Fanout[S]
	cancel context.CancelFunc
	done   chan struct{}

	// router is the manager's telemetry pipeline (nil when detached); pubBuf
	// is the reused per-step publish batch — PublishBatch copies samples into
	// the sink queues, so reuse is safe.
	router *pipeline.Router
	pubBuf []pipeline.Sample
}

// init readies the core of a unit built from its config: running, with a
// fresh fan-out, stepping every tickRealMS (def when unset, back-to-back
// when freeRun) until maxSimS of simulated time (forever when 0).
func (u *supervised[S]) init(kd kind, k stepper[S], def time.Duration, tickRealMS int, freeRun bool, maxSimS float64) {
	u.kind, u.k = kd, k
	u.state = StateRunning
	u.fan = telemetry.NewFanout[S]()
	u.done = make(chan struct{})
	u.tickReal = def
	if tickRealMS > 0 {
		u.tickReal = time.Duration(tickRealMS) * time.Millisecond
	}
	if freeRun {
		u.tickReal = 0
	}
	if maxSimS > 0 {
		u.maxSim = time.Duration(maxSimS * float64(time.Second))
	}
}

// ID returns the manager-assigned ID.
func (u *supervised[S]) ID() string { return u.id }

// Epoch returns how many steps (node ticks or coordinator epochs) have run.
func (u *supervised[S]) Epoch() uint64 { return u.epoch.Load() }

// Done is closed when the step loop has exited.
func (u *supervised[S]) Done() <-chan struct{} { return u.done }

// Subscribe registers a stream subscriber with the given ring-buffer
// capacity; its channel closes when the loop exits. Registration takes the
// lock so it is ordered against the step's publish: a cluster sample built
// while no subscriber existed aliases reused buffers, and must never reach
// a ring that outlives the step.
func (u *supervised[S]) Subscribe(buffer int) *telemetry.Subscriber[S] {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.fan.Subscribe(buffer)
}

// StreamDropped counts samples lost across every stream subscriber this
// unit ever had.
func (u *supervised[S]) StreamDropped() uint64 { return u.fan.TotalDropped() }

// StepOnce advances a detached node or cluster one step synchronously and
// reports whether it is still running — the deterministic entry point for
// tests and the perf harness.
func (u *supervised[S]) StepOnce() bool { return u.tick() }

// mutate applies fn to a running unit under the lock and republishes its
// status, so the change is visible before the next step.
func (u *supervised[S]) mutate(fn func() error) error {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.state != StateRunning {
		return fmt.Errorf("%w: %s %s is %s", ErrNotRunning, u.kind.name, u.id, u.state)
	}
	if err := fn(); err != nil {
		return err
	}
	u.k.refresh()
	return nil
}

// reached marks the unit done once simulated time now hits maxSim. Callers
// hold mu.
func (u *supervised[S]) reached(now time.Duration) {
	if u.maxSim > 0 && now >= u.maxSim {
		u.state = StateDone
	}
}

// tick runs one step and routes its metric families. It reports whether
// the loop should continue.
func (u *supervised[S]) tick() bool {
	smp, ok, cont := u.advance()
	if ok && u.router != nil {
		u.pubBuf = u.k.appendFamilies(u.pubBuf[:0], smp)
		u.router.PublishBatch(u.pubBuf)
	}
	return cont
}

// advance runs one locked step and fans its sample out. A panic escaping
// the step (a controller, model or policy blowing up mid-decision) marks
// this unit failed — its last coherent state still queryable — instead of
// crashing the daemon and taking every other unit down with it.
func (u *supervised[S]) advance() (smp S, ok, cont bool) {
	u.mu.Lock()
	defer u.mu.Unlock()
	// Registered after Unlock, so this recover runs first, still holding
	// the lock the failure state is written under.
	defer func() {
		if r := recover(); r != nil {
			log.Printf("server: %s %s failed: %v\n%s", u.kind.name, u.id, r, debug.Stack())
			u.fail(fmt.Sprintf("%s: %v", u.kind.panic, r))
			var zero S
			smp, ok, cont = zero, false, false
		}
	}()
	if u.state != StateRunning {
		return smp, false, false
	}
	smp, err := u.k.step()
	if err != nil {
		log.Printf("server: %s %s failed: %v", u.kind.name, u.id, err)
		u.fail(err.Error())
		var zero S
		return zero, false, false
	}
	u.fan.Publish(smp)
	return smp, true, u.state == StateRunning
}

// fail marks the unit failed, leaving the last coherent status view in
// place. Callers hold mu.
func (u *supervised[S]) fail(reason string) {
	u.state = StateFailed
	u.failReason = reason
	u.publishState()
}

// publishState refreshes only the state and failure reason of the
// published view — the failed/stopped unit's "still queryable" guarantee.
// Callers hold mu.
func (u *supervised[S]) publishState() {
	u.pubMu.Lock()
	u.pubState, u.pubFail = u.state, u.failReason
	u.pubMu.Unlock()
}

func (u *supervised[S]) setState(s State) {
	u.mu.Lock()
	if u.state == StateRunning {
		u.state = s
	}
	u.publishState()
	u.mu.Unlock()
}

// run is the step loop. Steps are decoupled from wall-clock progress: each
// advances the kind's simulated increment, paced every tickReal of real
// time (or back-to-back when free-running).
func (u *supervised[S]) run(ctx context.Context) {
	defer close(u.done)
	defer u.fan.Close()
	var tickC <-chan time.Time
	if u.tickReal > 0 {
		t := time.NewTicker(u.tickReal)
		defer t.Stop()
		tickC = t.C
	}
	for {
		if tickC == nil {
			// Free-running: yield between steps. Without this, each
			// free-running unit is a CPU-bound goroutine the scheduler only
			// preempts every ~10ms, and on small hosts every API handler
			// queues behind those slices — the load harness measured a
			// ~80ms latency floor across all endpoint classes from two such
			// nodes on one core.
			runtime.Gosched()
		} else {
			select {
			case <-ctx.Done():
			case <-tickC:
			}
		}
		if ctx.Err() != nil {
			u.setState(StateStopped)
			return
		}
		if !u.tick() {
			return
		}
	}
}

// stop cancels the step loop and waits for it to exit.
func (u *supervised[S]) stop() {
	u.cancel()
	<-u.done
}

// registry is the manager's table of one kind of unit: lookups by ID,
// creation order for stable listings, and lifetime counters for the
// exporter, all under the manager's read-write mutex.
type registry[T interface{ stop() }] struct {
	mu      *sync.RWMutex
	prefix  string // ID prefix: "n" for nodes, "c" for clusters
	byID    map[string]T
	order   []string
	nextID  int
	created atomic.Uint64
	deleted atomic.Uint64
}

func newRegistry[T interface{ stop() }](mu *sync.RWMutex, prefix string) *registry[T] {
	return &registry[T]{mu: mu, prefix: prefix, byID: make(map[string]T)}
}

// add files v under the next ID and returns it. Callers hold mu for
// writing.
func (r *registry[T]) add(v T) string {
	r.nextID++
	id := fmt.Sprintf("%s%d", r.prefix, r.nextID)
	r.byID[id] = v
	r.order = append(r.order, id)
	r.created.Add(1)
	return id
}

func (r *registry[T]) get(id string) (T, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	v, ok := r.byID[id]
	return v, ok
}

func (r *registry[T]) list() []T {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]T, 0, len(r.order))
	for _, id := range r.order {
		out = append(out, r.byID[id])
	}
	return out
}

func (r *registry[T]) len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.byID)
}

// delete unfiles a unit, then stops its loop and waits for it to drain.
func (r *registry[T]) delete(id string) error {
	r.mu.Lock()
	v, ok := r.byID[id]
	if ok {
		delete(r.byID, id)
		for i, o := range r.order {
			if o == id {
				r.order = append(r.order[:i], r.order[i+1:]...)
				break
			}
		}
	}
	r.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	v.stop()
	r.deleted.Add(1)
	return nil
}

// launch files v in reg, wires its core u to the manager's router and
// lifetime, and starts its step loop. It fails with ErrClosed once the
// manager is closed.
func launch[T interface{ stop() }, S any](m *Manager, reg *registry[T], v T, u *supervised[S]) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return ErrClosed
	}
	u.id = reg.add(v)
	u.router = m.router
	ctx, cancel := context.WithCancel(m.ctx)
	u.cancel = cancel
	m.wg.Add(1)
	m.mu.Unlock()

	u.fan.SetLagWarn(5*time.Second, func(total uint64) {
		log.Printf("server: %s %s stream subscriber lagging; %d samples dropped so far", u.kind.name, u.id, total)
	})
	go func() {
		defer m.wg.Done()
		u.run(ctx)
	}()
	return nil
}

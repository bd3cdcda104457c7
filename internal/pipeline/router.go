package pipeline

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Router errors.
var (
	// ErrRouterClosed reports sink registration on a closed router.
	ErrRouterClosed = errors.New("pipeline: router closed")
	// ErrDuplicateSink reports a sink name registered twice.
	ErrDuplicateSink = errors.New("pipeline: duplicate sink name")
)

// Config tunes the router. The zero value selects the defaults.
type Config struct {
	// QueueSize bounds each sink's queue, in samples (default 8192). A
	// sink that falls further behind than this loses its oldest queued
	// samples, counted per sink.
	QueueSize int
	// BatchSize is how many samples a worker accumulates before writing
	// a batch to its sink (default 256).
	BatchSize int
	// FlushInterval bounds how long a partial batch may sit in a worker
	// before being written out anyway (default 250ms).
	FlushInterval time.Duration
}

// Defaults for Config's zero fields.
const (
	DefaultQueueSize     = 8192
	DefaultBatchSize     = 256
	DefaultFlushInterval = 250 * time.Millisecond
)

func (c Config) withDefaults() Config {
	if c.QueueSize <= 0 {
		c.QueueSize = DefaultQueueSize
	}
	if c.BatchSize <= 0 {
		c.BatchSize = DefaultBatchSize
	}
	if c.BatchSize > c.QueueSize {
		c.BatchSize = c.QueueSize
	}
	if c.FlushInterval <= 0 {
		c.FlushInterval = DefaultFlushInterval
	}
	return c
}

// Router fans published samples out to named sinks, each behind its own
// bounded queue drained by a dedicated worker goroutine in batches.
//
// Publish never blocks on a sink indefinitely: a full queue first waits a
// bounded time for the worker to free space — a signal from the worker,
// not a scheduler yield, so the guarantee holds on any number of Ps — and
// only then evicts the oldest queued sample, counting the loss against the
// sink. A sink that lets a wait run out is marked stalled, and until its
// worker next frees space publishers evict without waiting: a wedged sink
// costs one bounded wait, never a block — the same contract the stream
// fan-out gives slow subscribers. Close stops intake (later publishes are
// counted no-ops, never panics), drains every queue in publish order,
// flushes each sink, and closes it.
type Router struct {
	cfg Config

	mu     sync.RWMutex // held for write only by AddSink/Close
	sinks  []*sinkWorker
	byName map[string]*sinkWorker
	closed bool
	wg     sync.WaitGroup

	collectors []Collector
	gatherBuf  []Sample
	stops      []func()

	published atomic.Uint64
	rejected  atomic.Uint64

	warnMin atomic.Int64 // nanoseconds between drop warnings
	warnFn  func(sink string, dropped uint64)
}

// stallWait bounds how long a publisher waits for a full queue's worker to
// free space before evicting. A live worker takes a whole batch out of the
// queue as soon as it is signalled, so a sustained fast publisher waits
// microseconds and loses nothing; only a sink stuck inside one Write for
// longer than this gets its queue trimmed.
const stallWait = 100 * time.Millisecond

// sinkWorker is one sink's queue — a ring of QueueSize samples that
// publishers append to and the worker takes out a batch at a time — and
// the worker's accounting.
type sinkWorker struct {
	r    *Router
	name string
	sink Sink

	mu      sync.Mutex // guards the ring, stalled, and spaceC
	ring    []Sample
	head, n int
	stalled bool          // a wait ran out; evict without waiting until the worker frees space
	spaceC  chan struct{} // closed when the worker frees space; nil while no publisher waits

	ready chan struct{} // cap 1: a full batch is queued
	quit  chan struct{} // closed by Router.Close: drain and exit

	written   atomic.Uint64
	dropped   atomic.Uint64
	batches   atomic.Uint64
	writeErrs atomic.Uint64
	lastWarn  atomic.Int64 // unix nanos of the last drop warning
}

// NewRouter returns a running router with no sinks.
func NewRouter(cfg Config) *Router {
	return &Router{
		cfg:    cfg.withDefaults(),
		byName: make(map[string]*sinkWorker),
	}
}

// AddSink registers a named sink and starts its worker. Names must be
// unique; registering on a closed router fails.
func (r *Router) AddSink(name string, sink Sink) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrRouterClosed
	}
	if _, dup := r.byName[name]; dup {
		return fmt.Errorf("%w: %q", ErrDuplicateSink, name)
	}
	sw := &sinkWorker{
		r: r, name: name, sink: sink,
		ring:  make([]Sample, r.cfg.QueueSize),
		ready: make(chan struct{}, 1),
		quit:  make(chan struct{}),
	}
	r.sinks = append(r.sinks, sw)
	r.byName[name] = sw
	r.wg.Add(1)
	go sw.run(r.cfg)
	return nil
}

// SetDropWarn installs a rate-limited callback invoked (at most once per
// min, per sink) when a sink's queue overflows and samples are dropped.
// The callback runs on the publisher's goroutine and must not block.
func (r *Router) SetDropWarn(min time.Duration, fn func(sink string, dropped uint64)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.warnMin.Store(int64(min))
	r.warnFn = fn
}

// Publish offers one sample to every sink. It never blocks on a slow
// sink beyond the bounded stall wait and reports whether the sample was
// accepted (false only after Close, when publishing becomes a counted
// no-op).
func (r *Router) Publish(s Sample) bool {
	return r.PublishBatch([]Sample{s})
}

// PublishBatch offers each sample of the batch to every sink, in order.
// The batch slice is not retained: samples are copied into the queues, so
// callers may reuse it immediately.
func (r *Router) PublishBatch(batch []Sample) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.closed {
		r.rejected.Add(uint64(len(batch)))
		return false
	}
	r.published.Add(uint64(len(batch)))
	for _, sw := range r.sinks {
		sw.offer(batch)
	}
	return true
}

// offer appends the batch to the sink's queue. A full queue gets one
// bounded wait for the worker to free space, then loses its oldest
// sample per sample enqueued; every loss is counted against the sink.
func (sw *sinkWorker) offer(batch []Sample) {
	size := len(sw.ring)
	var drops uint64
	sw.mu.Lock()
	for _, s := range batch {
		if sw.n == size && !sw.stalled {
			sw.mu.Unlock()
			sw.waitSpace()
			sw.mu.Lock()
		}
		if sw.n == size {
			sw.head = (sw.head + 1) % size
			sw.n--
			drops++
		}
		sw.ring[(sw.head+sw.n)%size] = s
		sw.n++
	}
	full := sw.n >= sw.r.cfg.BatchSize
	sw.mu.Unlock()
	if full {
		sw.signal()
	}
	if drops > 0 {
		sw.dropped.Add(drops)
		sw.noteDrop()
	}
}

// signal wakes the worker if it is not already due to wake.
func (sw *sinkWorker) signal() {
	select {
	case sw.ready <- struct{}{}:
	default:
	}
}

// waitSpace waits up to stallWait for the worker to take a batch out of
// the full queue, marking the sink stalled if it does not.
func (sw *sinkWorker) waitSpace() {
	sw.signal()
	sw.mu.Lock()
	if sw.n < len(sw.ring) || sw.stalled {
		sw.mu.Unlock()
		return
	}
	if sw.spaceC == nil {
		sw.spaceC = make(chan struct{})
	}
	spaceC := sw.spaceC
	sw.mu.Unlock()
	t := time.NewTimer(stallWait)
	defer t.Stop()
	select {
	case <-spaceC:
	case <-t.C:
		sw.mu.Lock()
		if sw.spaceC == spaceC {
			sw.stalled = true
		}
		sw.mu.Unlock()
	}
}

func (sw *sinkWorker) noteDrop() {
	fn := sw.r.warnFn
	if fn == nil {
		return
	}
	now := time.Now().UnixNano()
	last := sw.lastWarn.Load()
	if now-last < sw.r.warnMin.Load() {
		return
	}
	if sw.lastWarn.CompareAndSwap(last, now) {
		fn(sw.name, sw.dropped.Load())
	}
}

// take moves up to BatchSize of the oldest queued samples into batch,
// requiring a full batch unless partial is set. Freeing space clears the
// stall mark and wakes every publisher waiting for it.
func (sw *sinkWorker) take(batch []Sample, partial bool) []Sample {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	k := min(sw.n, cap(batch))
	if k == 0 || (k < cap(batch) && !partial) {
		return batch[:0]
	}
	size := len(sw.ring)
	batch = batch[:k]
	c := copy(batch, sw.ring[sw.head:min(sw.head+k, size)])
	copy(batch[c:], sw.ring[:k-c])
	sw.head = (sw.head + k) % size
	sw.n -= k
	sw.stalled = false
	if sw.spaceC != nil {
		close(sw.spaceC)
		sw.spaceC = nil
	}
	return batch
}

// run drains the worker's queue in batches: a batch is written when
// BatchSize samples are queued or when the flush interval elapses with
// samples pending. After Close the queue's remaining samples are drained
// in order and written as the final batches.
func (sw *sinkWorker) run(cfg Config) {
	defer sw.r.wg.Done()
	ticker := time.NewTicker(cfg.FlushInterval)
	defer ticker.Stop()
	batch := make([]Sample, 0, cfg.BatchSize)
	drain := func(partial bool) {
		for {
			batch = sw.take(batch, partial)
			if len(batch) == 0 {
				return
			}
			if err := sw.sink.Write(batch); err != nil {
				sw.writeErrs.Add(1)
			} else {
				sw.written.Add(uint64(len(batch)))
				sw.batches.Add(1)
			}
		}
	}
	for {
		select {
		case <-sw.ready:
			drain(false)
		case <-ticker.C:
			drain(true)
		case <-sw.quit:
			drain(true)
			return
		}
	}
}

// AddCollector registers a pull source for Gather and CollectEvery.
func (r *Router) AddCollector(c Collector) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, c)
}

// Gather runs every registered collector once and publishes the samples,
// returning how many were published. Collectors run serially under the
// router's registration lock.
func (r *Router) Gather() int {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return 0
	}
	buf := r.gatherBuf[:0]
	for _, c := range r.collectors {
		buf = c.Collect(buf)
	}
	r.gatherBuf = buf
	r.mu.Unlock()
	if len(buf) == 0 {
		return 0
	}
	r.PublishBatch(buf)
	return len(buf)
}

// CollectEvery gathers all registered collectors every d until the
// returned stop function is called or the router closes.
func (r *Router) CollectEvery(d time.Duration) (stop func()) {
	done := make(chan struct{})
	var once sync.Once
	// Close calls the same stopper, so both paths share the once.
	stop = func() { once.Do(func() { close(done) }) }
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return func() {}
	}
	r.stops = append(r.stops, stop)
	r.wg.Add(1)
	r.mu.Unlock()
	go func() {
		defer r.wg.Done()
		t := time.NewTicker(d)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				r.Gather()
			}
		}
	}()
	return stop
}

// Close shuts the router down in flush order: intake stops (concurrent
// and later publishes become counted no-ops), every queue is closed and
// its remaining samples drained to the sink in publish order, then each
// sink is flushed and closed. The first sink error is returned. Close is
// idempotent.
func (r *Router) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		r.wg.Wait()
		return nil
	}
	r.closed = true
	for _, stop := range r.stops {
		stop()
	}
	r.stops = nil
	sinks := r.sinks
	// Workers are told to drain under the write lock: no publisher can
	// hold the read lock here, so nothing is enqueued after the final
	// drain starts.
	for _, sw := range sinks {
		close(sw.quit)
	}
	r.mu.Unlock()
	r.wg.Wait()
	var first error
	for _, sw := range sinks {
		if err := sw.sink.Flush(); err != nil && first == nil {
			first = err
		}
		if err := sw.sink.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// SinkStats is one sink's lifetime accounting.
type SinkStats struct {
	// Name is the sink's registration name.
	Name string `json:"sink"`
	// Written counts samples successfully handed to the sink; Batches
	// counts the Write calls that carried them.
	Written uint64 `json:"written"`
	Batches uint64 `json:"batches"`
	// Dropped counts samples lost to a full queue — the sink fell behind
	// the publishers by more than QueueSize.
	Dropped uint64 `json:"dropped"`
	// WriteErrors counts batches the sink rejected with an error.
	WriteErrors uint64 `json:"write_errors"`
}

// Stats reports per-sink accounting in registration order.
func (r *Router) Stats() []SinkStats {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]SinkStats, len(r.sinks))
	for i, sw := range r.sinks {
		out[i] = SinkStats{
			Name:        sw.name,
			Written:     sw.written.Load(),
			Batches:     sw.batches.Load(),
			Dropped:     sw.dropped.Load(),
			WriteErrors: sw.writeErrs.Load(),
		}
	}
	return out
}

// Published reports how many samples the router has accepted.
func (r *Router) Published() uint64 { return r.published.Load() }

// Rejected reports samples offered after Close.
func (r *Router) Rejected() uint64 { return r.rejected.Load() }

// Dropped sums every sink's queue-overflow losses.
func (r *Router) Dropped() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var total uint64
	for _, sw := range r.sinks {
		total += sw.dropped.Load()
	}
	return total
}

// StatsCollector exposes the router's own accounting as metric families:
// pupil_pipeline_published_total, plus per-sink written/dropped counters
// labeled sink="<name>".
func (r *Router) StatsCollector() Collector { return routerStats{r} }

type routerStats struct{ r *Router }

func (routerStats) Families() []MetricFamily {
	return []MetricFamily{
		{Name: "pupil_pipeline_published_total", Help: "Samples accepted by the telemetry router.", Kind: Counter},
		{Name: "pupil_pipeline_written_total", Help: "Samples written to a telemetry sink.", Kind: Counter},
		{Name: "pupil_pipeline_dropped_total", Help: "Samples dropped by a lagging telemetry sink queue.", Kind: Counter},
	}
}

func (c routerStats) Collect(out []Sample) []Sample {
	out = append(out, Sample{Family: "pupil_pipeline_published_total", Value: float64(c.r.Published())})
	for _, st := range c.r.Stats() {
		out = append(out, Sample{Family: "pupil_pipeline_written_total", Sink: st.Name, Value: float64(st.Written)})
	}
	for _, st := range c.r.Stats() {
		out = append(out, Sample{Family: "pupil_pipeline_dropped_total", Sink: st.Name, Value: float64(st.Dropped)})
	}
	return out
}

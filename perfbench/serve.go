package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pupil/internal/machine"
	"pupil/internal/pipeline"
	"pupil/internal/server"
	"pupil/internal/workload"
)

// The resident fleet of the in-process daemon: paced nodes and one paced
// cluster, ticking in the background while the clients run.
var serveNodes = []server.NodeConfig{
	{Technique: "PUPiL", CapWatts: 140, Workloads: []server.WorkloadConfig{{Benchmark: "x264", Threads: 32}}},
	{Technique: "RAPL", CapWatts: 120, Workloads: []server.WorkloadConfig{{Benchmark: "STREAM", Threads: 8}}},
	{Technique: "PUPiL", CapWatts: 100, Workloads: []server.WorkloadConfig{{Benchmark: "kmeans", Threads: 16}}},
	{Technique: "RAPL", CapWatts: 180, Workloads: []server.WorkloadConfig{{Benchmark: "blackscholes", Threads: 32}}},
}

var serveCluster = server.ClusterConfig{
	BudgetWatts: 480,
	Policy:      "demand-shift",
	Parallel:    1,
	Nodes: []server.ClusterNodeConfig{
		{Technique: "RAPL", Workloads: []server.WorkloadConfig{{Benchmark: "blackscholes", Threads: 32}}},
		{Technique: "PUPiL", Workloads: []server.WorkloadConfig{{Benchmark: "STREAM", Threads: 8}}},
		{Technique: "RAPL", Workloads: []server.WorkloadConfig{{Benchmark: "swaptions", Threads: 32}}},
		{Technique: "PUPiL", Workloads: []server.WorkloadConfig{{Benchmark: "jacobi", Threads: 32}}},
	},
}

// churnNode is the node a client creates and deletes again.
var churnNode = server.NodeConfig{Technique: "RAPL", CapWatts: 110, Workloads: []server.WorkloadConfig{{Benchmark: "kmeans", Threads: 8}}}

const (
	serveClients  = 2
	serveRequests = 6000 // per client and repetition
	serveBlock    = 100  // per client and segment
	serveWarmup   = 150  // per client, untimed
	reqHeader     = "X-Perfbench-Req"
)

// daemon is an in-process pupild serving on loopback.
type daemon struct {
	mgr     *server.Manager
	hs      *http.Server
	done    chan struct{}
	base    string
	nodes   []string
	cluster string
	expo    *pipeline.Exposition
	sink    *timedSink
}

// startDaemon boots the daemon and ramps the resident fleet over HTTP. With
// rec set, handler calls are recorded as spans tied to the client's request
// id, and a timed exposition sink is attached to the telemetry router.
func startDaemon(rec *Recorder) (*daemon, error) {
	d := &daemon{mgr: server.NewManager(), done: make(chan struct{})}
	if rec != nil {
		d.expo = pipeline.NewExposition()
		d.sink = &timedSink{inner: d.expo, rec: rec}
		if err := d.mgr.AddSink("perfbench", d.sink); err != nil {
			d.mgr.Close()
			return nil, err
		}
	}
	h := server.New(d.mgr).Handler()
	if rec != nil {
		inner := h
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			req, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
			id := rec.Begin("server.handler", 0, req)
			inner.ServeHTTP(w, r)
			rec.End(id)
		})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.mgr.Close()
		return nil, err
	}
	d.hs = &http.Server{Handler: h}
	d.base = "http://" + ln.Addr().String()
	go func() {
		defer close(d.done)
		_ = d.hs.Serve(ln) // returns ErrServerClosed on stop
	}()

	c := &client{http: newHTTPClient(), base: d.base}
	defer c.http.CloseIdleConnections()
	for _, cfg := range serveNodes {
		var st server.NodeStatus
		if err := c.setup(http.MethodPost, "/v1/nodes", cfg, &st); err != nil {
			d.stop()
			return nil, err
		}
		d.nodes = append(d.nodes, st.ID)
	}
	var cst server.ClusterStatus
	if err := c.setup(http.MethodPost, "/v1/clusters", serveCluster, &cst); err != nil {
		d.stop()
		return nil, err
	}
	d.cluster = cst.ID
	return d, nil
}

// stop shuts the server down, waits for it, and drains every node and
// cluster loop.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = d.hs.Shutdown(ctx) // a timeout still leaves Close below to end the loops
	<-d.done
	d.mgr.Close()
}

func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true},
	}
}

// op is one request of a client's sequence. Paths naming the client's
// churn node are filled in when it runs.
type op struct {
	route, class string
	method, path string
	body         any
	want         int
}

// serveMix weights each drawn request by its rate in the default schedule
// of internal/load, the repository's model of production traffic, in
// requests per second when request time is small next to the load
// workers' sleeps:
//   - 3 probers, one read per 6 ms mean sleep: 500/s, split 50/20/15/10/5
//     over node status, node list, cluster status, recent telemetry and
//     cluster list;
//   - 2 stormers, one write per 25 ms mean sleep: 80/s, split 60/25/15
//     over node cap, cluster budget and a cluster member's cap;
//   - 2 churners, one create->delete cycle per 15 ms mean sleep plus about
//     20 ms for the new node's first two 10 ms-paced samples: about 57
//     cycles/s. The load harness makes every fourth cycle a cluster and
//     reads a stream off it; here every cycle is a node and no stream is
//     read.
//
// Three requests the default schedule does not send ride at 5/s each, so
// that the error taxonomy and the fault log are checked: a missing node
// (404), a negative cap (400) and a node's fault log.
var serveMix = []struct {
	route string
	rate  float64
}{
	{"node_get", 250}, {"node_list", 100}, {"cluster_get", 75}, {"recent", 50}, {"cluster_list", 25},
	{"node_cap", 48}, {"cluster_budget", 20}, {"cluster_node_cap", 12},
	{"churn", 57},
	{"node_missing", 5}, {"node_bad_cap", 5}, {"node_faults", 5},
}

// scrapeEvery spaces the first client's /metrics scrapes. The load harness
// scrapes every 2 s, once per about 1400 of the 709 requests/s above
// (a churn cycle is two requests). One client scrapes, as one Prometheus
// would, and it sends half of the requests.
const scrapeEvery = 700

// opSequence makes a client's fixed request sequence: about n requests in
// serveMix's proportions, a churn cycle counting as two, in an order drawn
// from rng, with a /metrics scrape every scrapeEvery requests when scraper
// is set. Every seed sends each kind of request equally often, so every
// seed does the same amount of work.
func opSequence(rng *rand.Rand, n int, d *daemon, scraper bool) []op {
	node := func() string { return "/v1/nodes/" + d.nodes[rng.Intn(len(d.nodes))] }
	cl := "/v1/clusters/" + d.cluster
	total := 0.0
	for _, m := range serveMix {
		total += m.rate * requestsPer(m.route)
	}
	var draws []string
	for _, m := range serveMix {
		for k := int(math.Round(float64(n) * m.rate / total)); k > 0; k-- {
			draws = append(draws, m.route)
		}
	}
	rng.Shuffle(len(draws), func(i, j int) { draws[i], draws[j] = draws[j], draws[i] })
	var ops []op
	nextScrape := scrapeEvery
	for _, route := range draws {
		if scraper && len(ops) >= nextScrape {
			ops = append(ops, op{"metrics", "scrape", http.MethodGet, "/metrics", nil, http.StatusOK})
			nextScrape += scrapeEvery
		}
		switch route {
		case "node_get":
			ops = append(ops, op{route, "read", http.MethodGet, node(), nil, http.StatusOK})
		case "node_list":
			ops = append(ops, op{route, "read", http.MethodGet, "/v1/nodes", nil, http.StatusOK})
		case "cluster_get":
			ops = append(ops, op{route, "read", http.MethodGet, cl, nil, http.StatusOK})
		case "recent":
			ops = append(ops, op{route, "read", http.MethodGet, "/v1/telemetry/recent?max=64", nil, http.StatusOK})
		case "cluster_list":
			ops = append(ops, op{route, "read", http.MethodGet, "/v1/clusters", nil, http.StatusOK})
		case "node_cap":
			capW := 80 + float64(rng.Intn(101))
			ops = append(ops, op{route, "write", http.MethodPut, node() + "/cap", map[string]float64{"cap_watts": capW}, http.StatusOK})
		case "cluster_budget":
			budget := float64(len(serveCluster.Nodes) * (90 + rng.Intn(81)))
			ops = append(ops, op{route, "write", http.MethodPut, cl + "/budget", map[string]float64{"budget_watts": budget}, http.StatusOK})
		case "cluster_node_cap":
			path := fmt.Sprintf("%s/nodes/%d/cap", cl, rng.Intn(len(serveCluster.Nodes)))
			capW := 60 + float64(rng.Intn(121))
			ops = append(ops, op{route, "write", http.MethodPut, path, map[string]float64{"cap_watts": capW}, http.StatusOK})
		case "churn":
			ops = append(ops,
				op{"node_create", "write", http.MethodPost, "/v1/nodes", churnNode, http.StatusCreated},
				op{"node_delete", "write", http.MethodDelete, "", nil, http.StatusNoContent})
		case "node_missing":
			ops = append(ops, op{route, "read", http.MethodGet, "/v1/nodes/n999999", nil, http.StatusNotFound})
		case "node_bad_cap":
			ops = append(ops, op{route, "write", http.MethodPut, node() + "/cap", map[string]float64{"cap_watts": -1}, http.StatusBadRequest})
		case "node_faults":
			ops = append(ops, op{route, "read", http.MethodGet, node() + "/faults", nil, http.StatusOK})
		}
	}
	return ops
}

// requestsPer is how many requests one draw of a route sends.
func requestsPer(route string) float64 {
	if route == "churn" {
		return 2
	}
	return 1
}

// client is one closed-loop API client: it sends its next request only
// after reading the previous reply in full.
type client struct {
	http  *http.Client
	base  string
	rec   *Recorder
	reqID func() int64

	lat     map[string][]float64 // ms by class
	errs    []string
	okCount int
	churn   string
}

// setup sends a set-up request and decodes its reply into out.
func (c *client) setup(method, path string, body, out any) error {
	status, data, _, err := c.send(method, path, body, 0)
	if err != nil {
		return err
	}
	if status/100 != 2 {
		return fmt.Errorf("%s %s: status %d: %s", method, path, status, data)
	}
	return json.Unmarshal(data, out)
}

// send issues one request, tagged with request id req when it is not 0,
// and reads the whole body; dur runs from send to the end of the body.
func (c *client) send(method, path string, body any, req int64) (status int, data []byte, dur time.Duration, err error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, nil, 0, err
		}
		rd = bytes.NewReader(b)
	}
	hr, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, 0, err
	}
	if req != 0 {
		hr.Header.Set(reqHeader, strconv.FormatInt(req, 10))
	}
	t0 := time.Now()
	resp, err := c.http.Do(hr)
	if err != nil {
		return 0, nil, 0, err
	}
	data, err = io.ReadAll(resp.Body)
	dur = time.Since(t0)
	resp.Body.Close()
	return resp.StatusCode, data, dur, err
}

// run executes ops in order, timing each and checking its reply.
func (c *client) run(ops []op, timed bool) {
	for _, o := range ops {
		path := o.path
		if o.route == "node_delete" {
			path = "/v1/nodes/" + c.churn
		}
		var req, span int64
		if c.rec != nil {
			req = c.reqID()
			span = c.rec.Begin("client."+o.route, 0, req)
		}
		status, data, dur, err := c.send(o.method, path, o.body, req)
		c.rec.End(span)
		if timed {
			c.lat[o.class] = append(c.lat[o.class], ms(dur))
		}
		if err == nil {
			err = c.check(o, status, data)
		}
		if err != nil {
			c.errs = append(c.errs, fmt.Sprintf("%s %s: %v", o.method, path, err))
			continue
		}
		c.okCount++
	}
}

// check validates a reply against the API's status taxonomy and body
// formats.
func (c *client) check(o op, status int, data []byte) error {
	if status != o.want {
		return fmt.Errorf("status %d, want %d: %.200s", status, o.want, data)
	}
	switch {
	case o.route == "metrics":
		return checkExposition(data)
	case status == http.StatusNoContent:
		if len(data) != 0 {
			return fmt.Errorf("204 with a %d-byte body", len(data))
		}
		return nil
	case status >= 400:
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(data, &e); err != nil || e.Error == "" {
			return fmt.Errorf("error body %.200q is not an API error (%v)", data, err)
		}
		return nil
	case o.route == "node_create":
		var st server.NodeStatus
		if err := json.Unmarshal(data, &st); err != nil || st.ID == "" {
			return fmt.Errorf("create reply %.200q has no node id (%v)", data, err)
		}
		c.churn = st.ID
		return nil
	}
	var v any
	return json.Unmarshal(data, &v)
}

// checkExposition parses a Prometheus text page: every sample line is a
// series and a float, and node power is present.
func checkExposition(page []byte) error {
	sc := bufio.NewScanner(bytes.NewReader(page))
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	power := false
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			return fmt.Errorf("malformed sample line %q", line)
		}
		if _, err := strconv.ParseFloat(line[i+1:], 64); err != nil {
			return fmt.Errorf("sample line %q: %v", line, err)
		}
		power = power || strings.HasPrefix(line, "pupil_power_watts")
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if !power {
		return errors.New("page carries no pupil_power_watts")
	}
	return nil
}

// serveAPI starts the daemon (cheapSetups times, timing each start and ramp),
// warms it up, then has two closed-loop clients send their fixed request
// sequences.
func serveAPI(ctx context.Context, seed uint64, rec *Recorder) (*rep, error) {
	r := newRep()
	var d *daemon
	for i := 0; i < cheapSetups; i++ {
		if d != nil {
			d.stop()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if d, err = startDaemon(rec); err != nil {
			return nil, err
		}
		r.Setup = append(r.Setup, time.Since(t0).Seconds())
	}
	defer d.stop()

	var next atomic.Int64
	reqID := func() int64 { return next.Add(1) }
	clients := make([]*client, serveClients)
	warm := make([][]op, serveClients)
	seqs := make([][]op, serveClients)
	for i := range clients {
		clients[i] = &client{http: newHTTPClient(), base: d.base, rec: rec, reqID: reqID, lat: map[string][]float64{}}
		defer clients[i].http.CloseIdleConnections()
		rng := rand.New(rand.NewSource(int64(seed)*1000003 + int64(i)))
		warm[i] = opSequence(rng, serveWarmup, d, false)
		seqs[i] = opSequence(rng, serveRequests, d, i == 0)
	}
	// runAll has every client send the requests [lo, hi) of its sequence,
	// then waits for all.
	runAll := func(seqs [][]op, lo, hi int, timed bool) {
		var wg sync.WaitGroup
		for i, c := range clients {
			ops := seqs[i][min(lo, len(seqs[i])):min(hi, len(seqs[i]))]
			wg.Add(1)
			go func() {
				defer wg.Done()
				c.run(ops, timed)
			}()
		}
		wg.Wait()
	}
	runAll(warm, 0, serveWarmup, false)
	// Each block of serveBlock requests per client is a segment; the
	// clients wait for each other between blocks, so every repetition
	// does the same work in each segment.
	phase := startPhase()
	for lo := 0; lo < len(seqs[0]); lo += serveBlock {
		runAll(seqs, lo, lo+serveBlock, true)
		phase.mark(r)
	}
	r.HeapMB = float64(liveHeap()) / (1 << 20)

	for _, c := range clients {
		for class, v := range c.lat {
			r.Samples[class] = append(r.Samples[class], v...)
		}
		r.Attempted += c.okCount + len(c.errs)
		for _, e := range c.errs {
			r.fail("%s", e)
		}
	}

	if rec != nil {
		if err := serveLayers(ctx, seed, d, rec, r); err != nil {
			return nil, err
		}
	}
	return r, ctx.Err()
}

// serveLayers times the server and pipeline layers directly, derives the
// network overhead from the request spans, and replays the resident nodes
// for the tick layers.
func serveLayers(ctx context.Context, seed uint64, d *daemon, rec *Recorder, r *rep) error {
	// Client time minus handler time, per request of the timed phase.
	handler := map[int64]time.Duration{}
	client := map[int64]time.Duration{}
	for _, s := range rec.Spans() {
		switch {
		case s.Name == "server.handler":
			handler[s.Req] = s.Dur()
		case strings.HasPrefix(s.Name, "client."):
			client[s.Req] = s.Dur()
		}
	}
	var over []float64
	for req, cd := range client {
		if hd, ok := handler[req]; ok {
			over = append(over, us(cd-hd))
		}
	}
	if len(over) > 0 {
		r.Layers["net.overhead_us"] = median(over)
	}

	// Handlers called directly, without a socket.
	h := server.New(d.mgr).Handler()
	serveOnce := func(method, path string, body any) (int, []byte, time.Duration) {
		var rd io.Reader
		if body != nil {
			b, _ := json.Marshal(body) // bodies are plain maps and configs
			rd = bytes.NewReader(b)
		}
		w := httptest.NewRecorder()
		req := httptest.NewRequest(method, path, rd)
		t0 := time.Now()
		h.ServeHTTP(w, req)
		return w.Code, w.Body.Bytes(), time.Since(t0)
	}
	node, cl := "/v1/nodes/"+d.nodes[0], "/v1/clusters/"+d.cluster
	routes := []struct {
		name, method, path string
		body               any
	}{
		{"node_get", http.MethodGet, node, nil},
		{"node_list", http.MethodGet, "/v1/nodes", nil},
		{"node_cap", http.MethodPut, node + "/cap", map[string]float64{"cap_watts": 150}},
		{"cluster_get", http.MethodGet, cl, nil},
		{"cluster_budget", http.MethodPut, cl + "/budget", map[string]float64{"budget_watts": 480}},
		{"metrics", http.MethodGet, "/metrics", nil},
	}
	const calls = 50
	for _, rt := range routes {
		var t []float64
		for i := 0; i < calls; i++ {
			code, _, dur := serveOnce(rt.method, rt.path, rt.body)
			if code/100 != 2 {
				return fmt.Errorf("direct %s %s: status %d", rt.method, rt.path, code)
			}
			t = append(t, us(dur))
		}
		r.Layers["server.handler_us."+rt.name] = median(t)
	}
	var creates, deletes []float64
	for i := 0; i < calls; i++ {
		code, body, dur := serveOnce(http.MethodPost, "/v1/nodes", churnNode)
		var st server.NodeStatus
		if code != http.StatusCreated || json.Unmarshal(body, &st) != nil {
			return fmt.Errorf("direct create: status %d", code)
		}
		creates = append(creates, us(dur))
		if code, _, dur = serveOnce(http.MethodDelete, "/v1/nodes/"+st.ID, nil); code != http.StatusNoContent {
			return fmt.Errorf("direct delete: status %d", code)
		}
		deletes = append(deletes, us(dur))
	}
	r.Layers["server.handler_us.node_create"] = median(creates)
	r.Layers["server.handler_us.node_delete"] = median(deletes)

	// Manager and node calls.
	n, _ := d.mgr.Get(d.nodes[0])
	c, _ := d.mgr.GetCluster(d.cluster)
	r.Layers["server.status_us"] = meanUS(1000, func() { _ = n.Status() })
	r.Layers["server.cluster_status_us"] = meanUS(200, func() { _ = c.Status() })
	creates, deletes = creates[:0], deletes[:0]
	for i := 0; i < calls; i++ {
		t0 := time.Now()
		nn, err := d.mgr.Create(churnNode)
		if err != nil {
			return err
		}
		creates = append(creates, us(time.Since(t0)))
		t0 = time.Now()
		if err := d.mgr.Delete(nn.ID()); err != nil {
			return err
		}
		deletes = append(deletes, us(time.Since(t0)))
	}
	r.Layers["server.create_us"] = median(creates)
	r.Layers["server.delete_us"] = median(deletes)
	det, err := server.NewDetachedNode(serveNodes[0])
	if err != nil {
		return err
	}
	r.Layers["server.node_step_us"] = meanUS(200, func() { det.StepOnce() })

	// Pipeline.
	r.Layers["pipeline.expo_render_us"] = meanUS(50, func() { _, _ = d.expo.WriteTo(io.Discard) })
	if st := byName(rec.Spans())["pipeline.sink_write"]; st != nil {
		r.Layers["pipeline.sink_write_us"] = median(st.total)
		r.Layers["pipeline.batch_samples"] = median(d.sink.batches)
	}
	st := n.Status()
	smp := server.Sample{Node: st.ID, Epoch: st.Epoch, SimS: st.SimS, CapWatts: st.CapWatts,
		PowerWatts: st.PowerWatts, MeanPowerWatts: st.MeanPowerWatts, PerfHBs: st.PerfHBs, Zones: st.Zones}
	enc := pipeline.NewStreamEncoder(io.Discard)
	r.Layers["pipeline.encode_us"] = meanUS(1000, func() { _ = enc.Encode(smp) })
	rt := d.mgr.Router()
	r.Layers["pipeline.drop_frac"] = float64(rt.Dropped()) / float64(max(1, rt.Published()))

	// Tick layers, replayed on the resident nodes' scenarios once the
	// daemon has stopped, so its paced fleet adds nothing to the replay's
	// heap figures. Stopping again on return is harmless.
	d.stop()
	probe := &layerProbe{rec: rec, plat: machine.E52690Server()}
	for i, cfg := range serveNodes {
		prof, err := workload.ByName(cfg.Workloads[0].Benchmark)
		if err != nil {
			return err
		}
		err = probe.run(ctx, replay{
			specs: []workload.Spec{{Profile: prof, Threads: cfg.Workloads[0].Threads}},
			tech:  cfg.Technique, capW: cfg.CapWatts, simDur: 30 * time.Second, seed: seed ^ uint64(i),
		})
		if err != nil {
			return err
		}
	}
	probe.metrics(r.Layers)
	coreMetrics(byName(rec.Spans()), r.Layers)
	return nil
}

// meanUS is the mean time of n calls of f, in microseconds.
func meanUS(n int, f func()) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f()
	}
	return us(time.Since(t0)) / float64(n)
}

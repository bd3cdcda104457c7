package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"time"

	"pupil/internal/cluster"
	"pupil/internal/core"
	"pupil/internal/machine"
	"pupil/internal/workload"
)

// The fleet: 1000 nodes in racks of 20, five racks to a row, under one
// demand-shift budget with health tracking on.
const (
	fleetNodes    = 1000
	fleetEpoch    = 100 * time.Millisecond
	fleetEpochs   = 60
	fleetPerNodeW = 120.0
	// The budget is cut to this per-node share halfway through.
	fleetCutW = 95.0
)

var fleetApps = []struct {
	name    string
	threads int
}{
	{"blackscholes", 32}, {"swaptions", 32}, {"kmeans", 8},
	{"STREAM", 8}, {"x264", 16}, {"jacobi", 32},
}

// fleetSpecs lists every node's application and technique. Each
// application runs on one node in six, and every fourth node runs PUPiL;
// the seed only shuffles which node gets which pairing, so every seed does
// the same amount of work.
func fleetSpecs(seed uint64) []fleetNode {
	nodes := make([]fleetNode, fleetNodes)
	for i := range nodes {
		a := fleetApps[i%len(fleetApps)]
		nodes[i] = fleetNode{app: a.name, threads: a.threads, tech: "RAPL"}
		if i%4 == 0 {
			nodes[i].tech = "PUPiL"
		}
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	rng.Shuffle(len(nodes), func(i, j int) { nodes[i], nodes[j] = nodes[j], nodes[i] })
	return nodes
}

type fleetNode struct {
	app, tech string
	threads   int
}

// buildFleet builds the coordinator; with rec set, member controllers and
// the policy are wrapped so their calls are timed.
func buildFleet(seed uint64, rec *Recorder) (*cluster.Coordinator, error) {
	plat := machine.E52690Server()
	nodes := make([]cluster.NodeSpec, fleetNodes)
	for i, fn := range fleetSpecs(seed) {
		prof, err := workload.ByName(fn.app)
		if err != nil {
			return nil, err
		}
		tech := fn.tech
		nodes[i] = cluster.NodeSpec{
			Name:     fmt.Sprintf("n%d", i),
			Platform: plat,
			Specs:    []workload.Spec{{Profile: prof, Threads: fn.threads}},
			NewController: func(p *machine.Platform) core.Controller {
				c, _ := newController(tech, p, nil) // RAPL and PUPiL need no trained model
				if rec != nil {
					c = newTracedController(c, rec)
				}
				return c
			},
		}
	}
	pol, err := cluster.PolicyByName("demand-shift")
	if err != nil {
		return nil, err
	}
	if rec != nil {
		pol = tracedPolicy{inner: pol, rec: rec}
	}
	return cluster.NewCoordinator(cluster.Config{
		Nodes:       nodes,
		BudgetWatts: fleetNodes * fleetPerNodeW,
		Epoch:       fleetEpoch,
		Policy:      pol,
		Seed:        seed,
		Parallel:    1,
		Topology:    cluster.Topology{NodesPerRack: 20, RacksPerRow: 5, RebalanceEvery: 5},
		Health:      &cluster.HealthConfig{},
	})
}

// fleetEpochRun builds the fleet and steps it a fixed number of epochs on
// one worker, snapshotting after each as pupild publishes it, and checking
// the coordinator's invariants after every epoch.
func fleetEpochRun(ctx context.Context, seed uint64, rec *Recorder) (*rep, error) {
	r := newRep()
	var c *cluster.Coordinator
	for i := 0; i < setups; i++ {
		c = nil // drop the previous build so it is not live while the next is timed
		runtime.GC()
		t0 := time.Now()
		built, err := buildFleet(seed, rec)
		if err != nil {
			return nil, err
		}
		r.Setup = append(r.Setup, time.Since(t0).Seconds())
		c = built
	}

	h := fnv.New64a()
	var sn cluster.Snapshot
	phase := startPhase()
	for e := 0; e < fleetEpochs; e++ {
		if e == fleetEpochs/2 {
			if err := c.SetBudget(fleetNodes * fleetCutW); err != nil {
				return nil, err
			}
		}
		id := rec.Begin("cluster.epoch", 0, 0)
		t0 := time.Now()
		sid := rec.Begin("cluster.step", id, 0)
		if err := c.StepContext(ctx, fleetEpoch); err != nil {
			return nil, err
		}
		rec.End(sid)
		sid = rec.Begin("cluster.snapshot", id, 0)
		c.SnapshotInto(&sn)
		rec.End(sid)
		r.Samples["epoch"] = append(r.Samples["epoch"], ms(time.Since(t0)))
		rec.End(id)

		r.Attempted++
		if err := c.CheckInvariants(); err != nil {
			r.fail("epoch %d: %v", e, err)
		}
		for _, n := range sn.Nodes {
			writeFloat(h, n.CapWatts)
			writeFloat(h, n.MeanPower)
		}
		phase.mark(r) // each epoch is a segment
	}
	r.HeapMB = float64(liveHeap()) / (1 << 20)
	r.SimS = fleetNodes * (fleetEpochs * fleetEpoch).Seconds()
	r.Hash = fmt.Sprintf("%016x", h.Sum64())

	if rec != nil {
		if err := fleetLayers(ctx, seed, c, rec, r); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// writeFloat feeds v's bits to a hash (whose Write never fails).
func writeFloat(h hash.Hash, v float64) {
	_, _ = h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
}

// fleetLayers reports the cluster layer from its spans, the controller
// layer from the members' wrapped controllers, and replays one node of
// each application under both techniques for the tick layers.
func fleetLayers(ctx context.Context, seed uint64, c *cluster.Coordinator, rec *Recorder, r *rep) error {
	stats := byName(rec.Spans())
	coreMetrics(stats, r.Layers)
	if st := stats["cluster.step"]; st != nil {
		r.Layers["cluster.step_ms_p50"] = median(st.total) / 1000
	}
	if st := stats["cluster.policy"]; st != nil {
		r.Layers["cluster.policy_us"] = median(st.total)
		r.Layers["cluster.policy_calls"] = float64(st.n)
	}
	if st := stats["cluster.snapshot"]; st != nil {
		r.Layers["cluster.snapshot_us"] = median(st.total)
	}
	r.Layers["cluster.quarantined"] = float64(c.QuarantinedCount())

	probe := &layerProbe{rec: rec, plat: machine.E52690Server()}
	for i, a := range fleetApps {
		prof, err := workload.ByName(a.name)
		if err != nil {
			return err
		}
		for _, tech := range []string{"RAPL", "PUPiL"} {
			err = probe.run(ctx, replay{
				specs: []workload.Spec{{Profile: prof, Threads: a.threads}}, tech: tech,
				capW: fleetPerNodeW, simDur: fleetEpochs * fleetEpoch, seed: seed ^ uint64(i),
			})
			if err != nil {
				return err
			}
		}
	}
	probe.metrics(r.Layers)
	return nil
}

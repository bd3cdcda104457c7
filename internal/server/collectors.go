package server

import "pupil/internal/pipeline"

// The exporter's collectors render from live NodeStatus/ClusterStatus
// snapshots at scrape time — the pipeline's exposition page gathers them
// on every render, so there is still no separate metrics store to drift
// out of sync. Family order matches the pre-pipeline exporter byte for
// byte, with the new zone and stream-drop families appended after the
// per-node counters.

// nodeCollector renders the per-node families plus the node lifecycle
// gauges and counters.
type nodeCollector struct{ mgr *Manager }

var nodeFamilies = []pipeline.MetricFamily{
	{Name: "pupil_power_watts", Help: "Instantaneous simulated node power draw in Watts.", Kind: pipeline.Gauge},
	{Name: "pupil_cap_watts", Help: "Power cap currently enforced on the node in Watts.", Kind: pipeline.Gauge},
	{Name: "pupil_perf_hbs", Help: "Aggregate node work rate in heartbeats per second.", Kind: pipeline.Gauge},
	{Name: "pupil_sim_seconds", Help: "Simulated time the node has advanced, in seconds.", Kind: pipeline.Gauge},
	{Name: "pupil_stream_subscribers", Help: "Live telemetry stream subscribers on the node.", Kind: pipeline.Gauge},
	{Name: "pupil_faults_active", Help: "Fault scenarios currently in effect on the node.", Kind: pipeline.Gauge},
	{Name: "pupil_degraded", Help: "Whether the supervision layer has the node off its normal rung (1) or not (0).", Kind: pipeline.Gauge},
	{Name: "pupil_energy_joules_total", Help: "Total simulated energy consumed by the node.", Kind: pipeline.Counter},
	{Name: "pupil_epochs_total", Help: "Simulation ticks the node has executed.", Kind: pipeline.Counter},
	{Name: "pupil_breach_seconds_total", Help: "Simulated seconds the node's power spent above cap*1.03.", Kind: pipeline.Counter},
	{Name: "pupil_degradations_total", Help: "Supervision ladder transitions on the node.", Kind: pipeline.Counter},
	{Name: "pupil_zone_cap_watts", Help: "RAPL cap programmed for a package power zone, in Watts.", Kind: pipeline.Gauge},
	{Name: "pupil_stream_dropped_total", Help: "Samples dropped across the node's stream subscribers by full ring buffers.", Kind: pipeline.Counter},
	{Name: "pupil_nodes_failed", Help: "Nodes whose sessions panicked and were isolated.", Kind: pipeline.Gauge},
	{Name: "pupil_nodes", Help: "Live simulated nodes.", Kind: pipeline.Gauge},
	{Name: "pupil_nodes_created_total", Help: "Nodes created since server start.", Kind: pipeline.Counter},
	{Name: "pupil_nodes_deleted_total", Help: "Nodes deleted since server start.", Kind: pipeline.Counter},
}

func (nodeCollector) Families() []pipeline.MetricFamily { return nodeFamilies }

func (c nodeCollector) Collect(out []pipeline.Sample) []pipeline.Sample {
	nodes := c.mgr.Nodes()
	statuses := make([]NodeStatus, len(nodes))
	for i, n := range nodes {
		statuses[i] = n.Status()
	}

	gauge := func(family string, value func(NodeStatus) float64) {
		for _, st := range statuses {
			out = append(out, pipeline.Sample{Family: family, Node: st.ID, SimS: st.SimS, Value: value(st)})
		}
	}
	gauge("pupil_power_watts", func(st NodeStatus) float64 { return st.PowerWatts })
	// The zone breakdown joins the same family, labeled node+zone, after
	// the node-level series.
	for _, st := range statuses {
		for _, z := range st.Zones {
			out = append(out, pipeline.Sample{Family: "pupil_power_watts", Node: st.ID, Zone: z.Zone, SimS: st.SimS, Value: z.PowerWatts})
		}
	}
	gauge("pupil_cap_watts", func(st NodeStatus) float64 { return st.CapWatts })
	gauge("pupil_perf_hbs", func(st NodeStatus) float64 { return st.PerfHBs })
	gauge("pupil_sim_seconds", func(st NodeStatus) float64 { return st.SimS })
	gauge("pupil_stream_subscribers", func(st NodeStatus) float64 { return float64(st.Subscribers) })
	gauge("pupil_faults_active", func(st NodeStatus) float64 { return float64(st.FaultsActive) })
	gauge("pupil_degraded", func(st NodeStatus) float64 {
		if st.DegradeLevel != "" && st.DegradeLevel != "normal" {
			return 1
		}
		return 0
	})
	gauge("pupil_energy_joules_total", func(st NodeStatus) float64 { return st.EnergyJ })
	gauge("pupil_epochs_total", func(st NodeStatus) float64 { return float64(st.Epoch) })
	gauge("pupil_breach_seconds_total", func(st NodeStatus) float64 { return st.BreachSeconds })
	gauge("pupil_degradations_total", func(st NodeStatus) float64 { return float64(st.Degradations) })
	for _, st := range statuses {
		for _, z := range st.Zones {
			if z.CapWatts > 0 {
				out = append(out, pipeline.Sample{Family: "pupil_zone_cap_watts", Node: st.ID, Zone: z.Zone, SimS: st.SimS, Value: z.CapWatts})
			}
		}
	}
	gauge("pupil_stream_dropped_total", func(st NodeStatus) float64 { return float64(st.StreamDropped) })

	failed := 0
	for _, st := range statuses {
		if st.State == StateFailed {
			failed++
		}
	}
	return appendLifecycle(out, nodeFamilies, failed, len(statuses), c.mgr.Created(), c.mgr.Deleted())
}

// appendLifecycle emits a kind's lifecycle tail — the last four families
// of fams: failed, live, created and deleted counts, in that order.
func appendLifecycle(out []pipeline.Sample, fams []pipeline.MetricFamily, failed, live int, created, deleted uint64) []pipeline.Sample {
	tail := fams[len(fams)-4:]
	for i, v := range [...]float64{float64(failed), float64(live), float64(created), float64(deleted)} {
		out = append(out, pipeline.Sample{Family: tail[i].Name, Value: v})
	}
	return out
}

// thermalCollector renders the per-socket thermal families. Families is
// dynamic: it declares nothing while no live node carries thermal state,
// so an idle daemon scrapes the exact pre-thermal page (pinned by the
// empty-manager golden).
type thermalCollector struct{ mgr *Manager }

var thermalFamilies = []pipeline.MetricFamily{
	{Name: "pupil_temp_celsius", Help: "Junction temperature of a package power zone, in degrees Celsius.", Kind: pipeline.Gauge},
	{Name: "pupil_thermal_throttled", Help: "Whether the package protection is duty-cycle throttling the zone (1) or not (0).", Kind: pipeline.Gauge},
}

func (c thermalCollector) Families() []pipeline.MetricFamily {
	for _, n := range c.mgr.Nodes() {
		if len(n.Status().Thermal) > 0 {
			return thermalFamilies
		}
	}
	return nil
}

func (c thermalCollector) Collect(out []pipeline.Sample) []pipeline.Sample {
	for _, n := range c.mgr.Nodes() {
		st := n.Status()
		for _, th := range st.Thermal {
			out = append(out, pipeline.Sample{Family: "pupil_temp_celsius", Node: st.ID, Zone: th.Zone, SimS: st.SimS, Value: th.TempC})
		}
		for _, th := range st.Thermal {
			throttled := 0.0
			if th.Throttled {
				throttled = 1
			}
			out = append(out, pipeline.Sample{Family: "pupil_thermal_throttled", Node: st.ID, Zone: th.Zone, SimS: st.SimS, Value: throttled})
		}
	}
	return out
}

// clusterCollector renders the pupil_cluster_* families plus the cluster
// lifecycle gauges and counters.
type clusterCollector struct{ mgr *Manager }

var clusterFamilies = []pipeline.MetricFamily{
	{Name: "pupil_cluster_budget_watts", Help: "Global power budget the cluster coordinator partitions, in Watts.", Kind: pipeline.Gauge},
	{Name: "pupil_cluster_power_watts", Help: "Cluster-wide mean power over the trailing epoch in Watts.", Kind: pipeline.Gauge},
	{Name: "pupil_cluster_perf_hbs", Help: "Cluster-wide work rate over the trailing epoch in heartbeats per second.", Kind: pipeline.Gauge},
	{Name: "pupil_cluster_nodes", Help: "Nodes in the cluster.", Kind: pipeline.Gauge},
	{Name: "pupil_cluster_sim_seconds", Help: "Simulated time the cluster has advanced, in seconds.", Kind: pipeline.Gauge},
	{Name: "pupil_cluster_stream_subscribers", Help: "Live epoch-stream subscribers on the cluster.", Kind: pipeline.Gauge},
	{Name: "pupil_cluster_node_cap_watts", Help: "Budget share currently assigned to one cluster node, in Watts.", Kind: pipeline.Gauge},
	{Name: "pupil_cluster_domain_budget_watts", Help: "Budget delegated to one hierarchical budget domain, in Watts.", Kind: pipeline.Gauge},
	{Name: "pupil_cluster_domain_power_watts", Help: "Mean power of one budget domain's member nodes over the trailing epoch, in Watts.", Kind: pipeline.Gauge},
	{Name: "pupil_cluster_domain_fair_share_min", Help: "Minimum node cap over fair even share within one budget domain.", Kind: pipeline.Gauge},
	{Name: "pupil_cluster_node_health", Help: "Health state of one cluster node (0 healthy, 1 suspect, 2 quarantined, 3 recovering), labeled with the state name.", Kind: pipeline.Gauge},
	{Name: "pupil_cluster_quarantined", Help: "Cluster nodes currently benched (quarantined or probing).", Kind: pipeline.Gauge},
	{Name: "pupil_cluster_budget_reclaimed_watts", Help: "Budget reclaimed from benched nodes and redistributed to healthy ones, in Watts.", Kind: pipeline.Gauge},
	{Name: "pupil_cluster_epochs_total", Help: "Coordinator epochs the cluster has stepped.", Kind: pipeline.Counter},
	{Name: "pupil_cluster_stream_dropped_total", Help: "Samples dropped across the cluster's stream subscribers by full ring buffers.", Kind: pipeline.Counter},
	{Name: "pupil_clusters_failed", Help: "Clusters whose coordinators panicked and were isolated.", Kind: pipeline.Gauge},
	{Name: "pupil_clusters", Help: "Live clusters.", Kind: pipeline.Gauge},
	{Name: "pupil_clusters_created_total", Help: "Clusters created since server start.", Kind: pipeline.Counter},
	{Name: "pupil_clusters_deleted_total", Help: "Clusters deleted since server start.", Kind: pipeline.Counter},
}

func (clusterCollector) Families() []pipeline.MetricFamily { return clusterFamilies }

func (c clusterCollector) Collect(out []pipeline.Sample) []pipeline.Sample {
	clusters := c.mgr.Clusters()
	statuses := make([]ClusterStatus, len(clusters))
	for i, cl := range clusters {
		statuses[i] = cl.Status()
	}

	gauge := func(family string, value func(ClusterStatus) float64) {
		for _, st := range statuses {
			out = append(out, pipeline.Sample{Family: family, Cluster: st.ID, SimS: st.SimS, Value: value(st)})
		}
	}
	gauge("pupil_cluster_budget_watts", func(st ClusterStatus) float64 { return st.BudgetWatts })
	gauge("pupil_cluster_power_watts", func(st ClusterStatus) float64 { return st.TotalPowerWatts })
	gauge("pupil_cluster_perf_hbs", func(st ClusterStatus) float64 { return st.TotalPerfHBs })
	gauge("pupil_cluster_nodes", func(st ClusterStatus) float64 { return float64(len(st.Nodes)) })
	gauge("pupil_cluster_sim_seconds", func(st ClusterStatus) float64 { return st.SimS })
	gauge("pupil_cluster_stream_subscribers", func(st ClusterStatus) float64 { return float64(st.Subscribers) })
	for i, st := range statuses {
		for _, n := range st.Nodes {
			out = append(out, pipeline.Sample{Family: "pupil_cluster_node_cap_watts", Cluster: st.ID, Domain: clusters[i].nodeDomain(n.Index), Node: n.Name, SimS: st.SimS, Value: n.CapWatts})
		}
	}
	for _, st := range statuses {
		for _, d := range st.Domains {
			out = append(out, pipeline.Sample{Family: "pupil_cluster_domain_budget_watts", Cluster: st.ID, Domain: d.Name, SimS: st.SimS, Value: d.BudgetWatts})
		}
	}
	for _, st := range statuses {
		for _, d := range st.Domains {
			out = append(out, pipeline.Sample{Family: "pupil_cluster_domain_power_watts", Cluster: st.ID, Domain: d.Name, SimS: st.SimS, Value: d.MeanPowerWatts})
		}
	}
	for _, st := range statuses {
		for _, d := range st.Domains {
			out = append(out, pipeline.Sample{Family: "pupil_cluster_domain_fair_share_min", Cluster: st.ID, Domain: d.Name, SimS: st.SimS, Value: d.FairShareMin})
		}
	}
	// Health families render only for clusters created with health
	// tracking, so a health-off deployment's scrape page is unchanged
	// beyond the (always-present) family headers.
	for i, st := range statuses {
		if !clusters[i].healthOn {
			continue
		}
		for _, n := range st.Nodes {
			out = append(out, pipeline.Sample{Family: "pupil_cluster_node_health", Cluster: st.ID, Domain: clusters[i].nodeDomain(n.Index), Node: n.Name, State: n.Health, SimS: st.SimS, Value: healthStateValue[n.Health]})
		}
	}
	for i, st := range statuses {
		if !clusters[i].healthOn {
			continue
		}
		out = append(out,
			pipeline.Sample{Family: "pupil_cluster_quarantined", Cluster: st.ID, SimS: st.SimS, Value: float64(st.Quarantined)},
			pipeline.Sample{Family: "pupil_cluster_budget_reclaimed_watts", Cluster: st.ID, SimS: st.SimS, Value: st.ReclaimedWatts})
	}
	gauge("pupil_cluster_epochs_total", func(st ClusterStatus) float64 { return float64(st.Epoch) })
	gauge("pupil_cluster_stream_dropped_total", func(st ClusterStatus) float64 { return float64(st.StreamDropped) })

	failed := 0
	for _, st := range statuses {
		if st.State == StateFailed {
			failed++
		}
	}
	return appendLifecycle(out, clusterFamilies, failed, len(statuses), c.mgr.ClustersCreated(), c.mgr.ClustersDeleted())
}

// httpCollector renders the request counter — last on the page, as the
// pre-pipeline exporter had it.
type httpCollector struct{ s *Server }

func (httpCollector) Families() []pipeline.MetricFamily {
	return []pipeline.MetricFamily{
		{Name: "pupil_http_requests_total", Help: "HTTP requests served.", Kind: pipeline.Counter},
	}
}

func (c httpCollector) Collect(out []pipeline.Sample) []pipeline.Sample {
	return append(out, pipeline.Sample{Family: "pupil_http_requests_total", Value: float64(c.s.requests.Load())})
}

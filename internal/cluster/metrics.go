package cluster

import (
	"fmt"
	"io"
	"strconv"

	"repro/internal/obs"
)

// Cluster-level Prometheus exposition, same hand-rolled text format as
// internal/serve's: the coordinator's counters are already the
// collected state, so rendering is a pure read. Per-node series are
// labeled {slot,node} — slot is the stable identity, node is the
// current occupant's address, so a failover shows up as the slot's
// series restarting under a new node label instead of a silent counter
// reset on an unchanged series.

// WriteMetrics renders the coordinator's Prometheus text exposition.
func (co *Coordinator) WriteMetrics(w io.Writer) {
	co.mu.Lock()
	members := append([]*member(nil), co.nodes...)
	instances := len(co.insts)
	co.mu.Unlock()

	fmt.Fprintf(w, "# HELP osp_cluster_nodes Nodes in the fleet (slots).\n")
	fmt.Fprintf(w, "# TYPE osp_cluster_nodes gauge\n")
	fmt.Fprintf(w, "osp_cluster_nodes %d\n", len(members))
	fmt.Fprintf(w, "# HELP osp_cluster_instances Cluster-level instances registered.\n")
	fmt.Fprintf(w, "# TYPE osp_cluster_instances gauge\n")
	fmt.Fprintf(w, "osp_cluster_instances %d\n", instances)

	fmt.Fprintf(w, "# HELP osp_cluster_node_info Current occupant of each slot (value is always 1; the labels carry the information).\n")
	fmt.Fprintf(w, "# TYPE osp_cluster_node_info gauge\n")
	for _, m := range members {
		fmt.Fprintf(w, "osp_cluster_node_info{%s,stream=%s} 1\n", nodeLabels(m), obs.QuoteLabel(m.cfg.StreamAddr))
	}
	fmt.Fprintf(w, "# HELP osp_cluster_node_batches_total Element shares forwarded to each node.\n")
	fmt.Fprintf(w, "# TYPE osp_cluster_node_batches_total counter\n")
	for _, m := range members {
		fmt.Fprintf(w, "osp_cluster_node_batches_total{%s} %d\n", nodeLabels(m), m.batches.Load())
	}
	fmt.Fprintf(w, "# HELP osp_cluster_node_elements_total Elements forwarded to each node.\n")
	fmt.Fprintf(w, "# TYPE osp_cluster_node_elements_total counter\n")
	for _, m := range members {
		fmt.Fprintf(w, "osp_cluster_node_elements_total{%s} %d\n", nodeLabels(m), m.elements.Load())
	}
	fmt.Fprintf(w, "# HELP osp_cluster_node_errors_total Failed forwards per node (each leaves a retained share for failover).\n")
	fmt.Fprintf(w, "# TYPE osp_cluster_node_errors_total counter\n")
	for _, m := range members {
		fmt.Fprintf(w, "osp_cluster_node_errors_total{%s} %d\n", nodeLabels(m), m.errs.Load())
	}

	if h := co.healthMonitor(); h != nil {
		states := h.States()
		fmt.Fprintf(w, "# HELP osp_cluster_node_health Health-monitor state per slot: 2 healthy, 1 suspect, 0 dead.\n")
		fmt.Fprintf(w, "# TYPE osp_cluster_node_health gauge\n")
		for _, m := range members {
			if m.slot < len(states) {
				fmt.Fprintf(w, "osp_cluster_node_health{%s} %d\n", nodeLabels(m), int32(states[m.slot]))
			}
		}
		fmt.Fprintf(w, "# HELP osp_cluster_spares Replacement nodes still available to automatic failover.\n")
		fmt.Fprintf(w, "# TYPE osp_cluster_spares gauge\n")
		fmt.Fprintf(w, "osp_cluster_spares %d\n", h.SpareCount())
		fmt.Fprintf(w, "# HELP osp_cluster_auto_failovers_total Automatic ReplaceNode replays completed by the health monitor.\n")
		fmt.Fprintf(w, "# TYPE osp_cluster_auto_failovers_total counter\n")
		fmt.Fprintf(w, "osp_cluster_auto_failovers_total %d\n", h.autoFailovers.Load())
		fmt.Fprintf(w, "# HELP osp_cluster_failed_failovers_total Automatic ReplaceNode replays that errored (slot left suspect, shares retained).\n")
		fmt.Fprintf(w, "# TYPE osp_cluster_failed_failovers_total counter\n")
		fmt.Fprintf(w, "osp_cluster_failed_failovers_total %d\n", h.failedAttempts.Load())
		fmt.Fprintf(w, "# HELP osp_cluster_probe_failures_total Health probes that failed.\n")
		fmt.Fprintf(w, "# TYPE osp_cluster_probe_failures_total counter\n")
		fmt.Fprintf(w, "osp_cluster_probe_failures_total %d\n", h.probeFails.Load())
	}

	fmt.Fprintf(w, "# HELP osp_cluster_failovers_total Node replacements replayed (ReplaceNode).\n")
	fmt.Fprintf(w, "# TYPE osp_cluster_failovers_total counter\n")
	fmt.Fprintf(w, "osp_cluster_failovers_total %d\n", co.failovers.Load())
	fmt.Fprintf(w, "# HELP osp_cluster_resent_elements_total Elements resent to replacement nodes during failover replay.\n")
	fmt.Fprintf(w, "# TYPE osp_cluster_resent_elements_total counter\n")
	fmt.Fprintf(w, "osp_cluster_resent_elements_total %d\n", co.resent.Load())
	fmt.Fprintf(w, "# HELP osp_cluster_lost_elements_total Acknowledged elements lost to failovers (always 0 with the journal on).\n")
	fmt.Fprintf(w, "# TYPE osp_cluster_lost_elements_total counter\n")
	fmt.Fprintf(w, "osp_cluster_lost_elements_total %d\n", co.lost.Load())

	const name = "osp_cluster_forward_duration_seconds"
	fmt.Fprintf(w, "# HELP %s Per-batch forward latency: from sending the first node share to the last share's verdicts decoded and called back.\n", name)
	fmt.Fprintf(w, "# TYPE %s histogram\n", name)
	obs.WriteHistogram(w, name, "", co.forward.Snapshot())
}

// nodeLabels renders a member's identifying label pairs.
func nodeLabels(m *member) string {
	return "slot=" + obs.QuoteLabel(strconv.Itoa(m.slot)) + ",node=" + obs.QuoteLabel(m.cfg.BaseURL)
}

package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
)

// NodeReport is the final state of one node.
type NodeReport struct {
	Index         int     `json:"index"`
	Hostile       bool    `json:"hostile"`
	State         string  `json:"state"`
	CycleTime     float64 `json:"cycle_time"`
	Attempted     int     `json:"attempted"`
	Processed     int     `json:"processed"`
	Contained     int     `json:"contained"`
	WatchdogKills int     `json:"watchdog_kills"`
	LinesDisabled int     `json:"lines_disabled"`
	DisabledFrac  float64 `json:"disabled_frac"`
	Drains        int     `json:"drains"`
}

// Report is the outcome of one fleet simulation. Field values are pure
// functions of the Config, so the JSON encoding of a fixed-seed run is
// byte-identical across invocations.
type Report struct {
	App         string  `json:"app"`
	Nodes       int     `json:"nodes"`
	Packets     int     `json:"packets"`
	Seed        uint64  `json:"seed"`
	Dispatch    string  `json:"dispatch"`
	FaultyNodes int     `json:"faulty_nodes"`
	QueueCap    int     `json:"queue_cap"`
	MeanGap     float64 `json:"mean_gap"`

	SLOLatencyTicks float64 `json:"slo_latency_ticks"`
	SLOMaxDropRate  float64 `json:"slo_max_drop_rate"`

	Arrivals      int `json:"arrivals"`
	Admitted      int `json:"admitted"`
	Dispatched    int `json:"dispatched"`
	Completed     int `json:"completed"`
	NodeDrops     int `json:"node_drops"`
	Shed          int `json:"shed"`
	ShedAdmission int `json:"shed_admission"`
	ShedQueueFull int `json:"shed_queue_full"`
	ShedFailover  int `json:"shed_failover"`
	Redispatched  int `json:"redispatched"`

	FleetDropRate float64 `json:"fleet_drop_rate"`
	DropSLOMet    bool    `json:"drop_slo_met"`
	P50Latency    float64 `json:"p50_latency_ticks"`
	P99Latency    float64 `json:"p99_latency_ticks"`
	Attainment    float64 `json:"slo_attainment"`
	SLOViolations int     `json:"slo_violations"`

	Degradations int `json:"degradations"`
	Drains       int `json:"drains"`
	Reclocks     int `json:"reclocks"`
	Probations   int `json:"probations"`
	Recoveries   int `json:"recoveries"`
	Deaths       int `json:"deaths"`

	EndTime   float64      `json:"end_time_ticks"`
	NodesLive int          `json:"nodes_live"`
	PerNode   []NodeReport `json:"per_node"`
}

// quantile returns the q-th quantile of a sorted sample (nearest rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted)-1) + 0.5)
	return sorted[i]
}

func (f *fleet) report() *Report {
	c := f.counts
	r := &Report{
		App:         f.cfg.App,
		Nodes:       f.cfg.Nodes,
		Packets:     f.cfg.Packets,
		Seed:        f.cfg.Seed,
		Dispatch:    f.cfg.Dispatch.String(),
		FaultyNodes: f.cfg.FaultyNodes,
		QueueCap:    f.cfg.QueueCap,
		MeanGap:     f.meanGap,

		SLOLatencyTicks: f.sloLatency,
		SLOMaxDropRate:  sloDropRate,

		Arrivals:      c.arrivals,
		Admitted:      c.admitted,
		Dispatched:    c.dispatched,
		Completed:     c.completed,
		NodeDrops:     c.nodeDrops,
		Shed:          c.shed,
		ShedAdmission: c.shedAdmission,
		ShedQueueFull: c.shedQueueFull,
		ShedFailover:  c.shedFailover,
		Redispatched:  c.redispatched,

		Degradations: c.degradations,
		Drains:       c.drains,
		Reclocks:     c.reclocks,
		Probations:   c.probations,
		Recoveries:   c.recoveries,
		Deaths:       c.deaths,

		SLOViolations: c.sloViolations,
		EndTime:       f.now,
	}
	if c.arrivals > 0 {
		r.FleetDropRate = float64(c.nodeDrops+c.shed) / float64(c.arrivals)
		r.Attainment = float64(f.withinSLO) / float64(c.arrivals)
	}
	r.DropSLOMet = r.FleetDropRate <= sloDropRate

	sorted := append([]float64(nil), f.latencies...)
	sort.Float64s(sorted)
	r.P50Latency = quantile(sorted, 0.50)
	r.P99Latency = quantile(sorted, 0.99)

	for i, m := range f.nodes {
		h := m.node.Health()
		if m.state != StateDead {
			r.NodesLive++
		}
		r.PerNode = append(r.PerNode, NodeReport{
			Index:         i,
			Hostile:       m.hostile,
			State:         m.state.String(),
			CycleTime:     h.CycleTime,
			Attempted:     h.Attempted,
			Processed:     h.Processed,
			Contained:     h.Contained,
			WatchdogKills: h.WatchdogKills,
			LinesDisabled: h.LinesDisabled,
			DisabledFrac:  h.DisabledFrac,
			Drains:        m.drains,
		})
	}
	return r
}

// WriteJSON writes the report as indented JSON. Byte-identical for
// identical configurations.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteText renders the human-readable fleet summary.
func (r *Report) WriteText(w io.Writer) error {
	fmt.Fprintf(w, "fleet: app=%s nodes=%d (faulty=%d) packets=%d seed=%d dispatch=%s queue=%d gap=%.1f\n",
		r.App, r.Nodes, r.FaultyNodes, r.Packets, r.Seed, r.Dispatch, r.QueueCap, r.MeanGap)
	fmt.Fprintf(w, "traffic: arrivals=%d admitted=%d completed=%d node_drops=%d shed=%d (admission=%d full=%d failover=%d) redispatched=%d\n",
		r.Arrivals, r.Admitted, r.Completed, r.NodeDrops, r.Shed,
		r.ShedAdmission, r.ShedQueueFull, r.ShedFailover, r.Redispatched)
	fmt.Fprintf(w, "SLO: latency<=%.0f ticks, drop<=%.1f%%: attainment=%.1f%% p50=%.0f p99=%.0f drop_rate=%.2f%% met=%v\n",
		r.SLOLatencyTicks, 100*r.SLOMaxDropRate, 100*r.Attainment,
		r.P50Latency, r.P99Latency, 100*r.FleetDropRate, r.DropSLOMet)
	fmt.Fprintf(w, "health: degradations=%d drains=%d reclocks=%d probations=%d recoveries=%d deaths=%d live=%d/%d\n",
		r.Degradations, r.Drains, r.Reclocks, r.Probations, r.Recoveries, r.Deaths, r.NodesLive, r.Nodes)

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "node\tregime\tstate\tcr\tattempted\tprocessed\tcontained\twatchdog\tdead_lines\tdisabled\tdrains")
	for _, n := range r.PerNode {
		regime := "paper"
		if n.Hostile {
			regime = "hostile"
		}
		fmt.Fprintf(tw, "%d\t%s\t%s\t%.3f\t%d\t%d\t%d\t%d\t%d\t%.1f%%\t%d\n",
			n.Index, regime, n.State, n.CycleTime, n.Attempted, n.Processed,
			n.Contained, n.WatchdogKills, n.LinesDisabled, 100*n.DisabledFrac, n.Drains)
	}
	return tw.Flush()
}

package cluster

import (
	"bytes"
	"fmt"
	"sort"

	"repro/internal/telemetry"
	"repro/internal/wire"
)

// MetricsAll fans METRICS out to every member and returns the
// flight-recorder snapshots keyed by address — the per-node view, where a
// hot member is visible. AggregateMetrics folds them into the cluster
// view.
func (c *Client) MetricsAll(flags wire.MetricsFlags) (map[string]*wire.Metrics, error) {
	c.maybeRefresh()
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make(map[string]*wire.Metrics, len(c.nodes))
	for _, addr := range c.ring.Nodes() {
		err := c.nodes[addr].do(c.dial, func(cl *wire.Client) error {
			m, err := cl.Metrics(flags)
			if err == nil {
				out[addr] = m
				c.observeEpoch(cl.LastEpoch())
			}
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("cluster: METRICS %s: %w", addr, err)
		}
	}
	return out, nil
}

// AggregateMetrics merges per-member flight-recorder snapshots into one
// cluster-wide view: histograms merge bucket-wise (the merged histogram
// equals what one recorder fed every node's samples would hold, so
// cluster quantiles are exact up to bucket resolution, not averages of
// averages), counters sum, slow-op rings concatenate in member-address
// iteration order (each ring is oldest-first, but cross-member order is
// not reconstructed — records carry UnixNanos for that), hot-key
// sketches merge by union-and-sum per class (associative and
// commutative, so the cluster ranking is collection-order independent),
// and spans concatenate grouped by trace ID so one request's
// cluster-wide path reads contiguously.
func AggregateMetrics(metrics map[string]*wire.Metrics) *wire.Metrics {
	agg := &wire.Metrics{}
	hists := make(map[byte]*telemetry.HistogramSnapshot)
	counters := make(map[byte]uint64)
	hot := make(map[byte]telemetry.TopKSnapshot)
	for _, m := range metrics {
		agg.Flags |= m.Flags
		for i := range m.Hists {
			h := &m.Hists[i]
			if have, ok := hists[h.ID]; ok {
				have.Merge(&h.Snap)
			} else {
				snap := h.Snap
				hists[h.ID] = &snap
			}
		}
		for _, c := range m.Counters {
			counters[c.ID] += c.Value
		}
		agg.SlowOps = append(agg.SlowOps, m.SlowOps...)
		for _, hc := range m.HotKeys {
			hot[hc.Class] = hot[hc.Class].Merge(hc.Keys)
		}
		agg.Spans = append(agg.Spans, m.Spans...)
	}
	// Rebuild the sections in the ascending-ID order the wire form keeps.
	for id := byte(1); id != 0; id++ {
		if h, ok := hists[id]; ok {
			agg.Hists = append(agg.Hists, wire.OpHist{ID: id, Snap: *h})
		}
		if v, ok := counters[id]; ok {
			agg.Counters = append(agg.Counters, wire.MetricCounter{ID: id, Value: v})
		}
		if ks, ok := hot[id]; ok && len(ks) > 0 {
			agg.HotKeys = append(agg.HotKeys, wire.HotKeyClass{Class: id, Keys: ks})
		}
	}
	// Group spans by trace ID (stable within a trace, so each member's
	// oldest-first order survives), then by time within the trace.
	sort.SliceStable(agg.Spans, func(i, j int) bool {
		a, b := &agg.Spans[i], &agg.Spans[j]
		if c := bytes.Compare(a.TraceID[:], b.TraceID[:]); c != 0 {
			return c < 0
		}
		return a.UnixNanos < b.UnixNanos
	})
	return agg
}

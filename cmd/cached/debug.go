package main

import (
	"encoding/json"
	"log"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on the default mux
	"time"

	"repro/internal/server"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// serveDebug exposes the operator's localhost side-channel on its own
// listener, separate from the cache port: net/http/pprof under
// /debug/pprof/ and a JSON rendering of the flight recorder at /metrics.
// The JSON view is for humans and scrapers; programs inside the cluster
// use the METRICS wire op, which is what the JSON is built from.
func serveDebug(addr string, srv *server.Server) {
	http.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(debugMetrics(srv)); err != nil {
			log.Printf("cached: /metrics encode: %v", err)
		}
	})
	go func() {
		log.Printf("cached: debug server (pprof, /metrics) on %s", addr)
		if err := http.ListenAndServe(addr, nil); err != nil {
			log.Printf("cached: debug server: %v", err)
		}
	}()
}

// debugHist is one histogram reduced to the numbers an operator reads
// first; the full bucket vector stays on the wire op.
type debugHist struct {
	Count  uint64        `json:"count"`
	Mean   time.Duration `json:"mean_ns"`
	P50    time.Duration `json:"p50_ns"`
	P99    time.Duration `json:"p99_ns"`
	P999   time.Duration `json:"p999_ns"`
	MaxBkt time.Duration `json:"max_bucket_ns"`
}

// debugRecord is one flight-recorder record, the one shape of the
// slow_ops and traces lists; trace_id is omitted on an untraced slow op.
type debugRecord struct {
	Op       string `json:"op"`
	Status   string `json:"status"`
	TraceID  string `json:"trace_id,omitempty"`
	KeyHash  uint64 `json:"key_hash"`
	Duration int64  `json:"duration_ns"`
	Version  uint64 `json:"version"`
	Unix     uint64 `json:"unix_nanos"`
}

func debugRecords(recs []telemetry.Span) []debugRecord {
	out := make([]debugRecord, len(recs))
	for i, r := range recs {
		out[i] = debugRecord{
			Op:       wire.Op(r.Op).String(),
			Status:   wire.Status(r.Status).String(),
			KeyHash:  r.KeyHash,
			Duration: int64(r.DurationNanos),
			Version:  r.Version,
			Unix:     r.UnixNanos,
		}
		if !r.TraceID.IsZero() {
			out[i].TraceID = r.TraceID.String()
		}
	}
	return out
}

type debugHotKey struct {
	KeyHash uint64 `json:"key_hash"`
	Count   uint64 `json:"count"`
	Err     uint64 `json:"err"`
}

func debugMetrics(srv *server.Server) map[string]any {
	m := srv.MetricsSnapshot(wire.MetricsAll)
	hists := make(map[string]debugHist, len(m.Hists))
	for i := range m.Hists {
		h := &m.Hists[i]
		hists[wire.HistName(h.ID)] = debugHist{
			Count:  h.Snap.Count,
			Mean:   h.Snap.Mean(),
			P50:    h.Snap.Quantile(0.50),
			P99:    h.Snap.Quantile(0.99),
			P999:   h.Snap.Quantile(0.999),
			MaxBkt: h.Snap.Quantile(1),
		}
	}
	counters := make(map[string]uint64, len(m.Counters))
	for _, c := range m.Counters {
		counters[wire.CounterName(c.ID)] = c.Value
	}
	// Hot keys: the top 10 per class is what an operator scans; the full
	// sketch stays on the wire op.
	hot := make(map[string][]debugHotKey, len(m.HotKeys))
	for _, hc := range m.HotKeys {
		top := hc.Keys.Top(10)
		out := make([]debugHotKey, len(top))
		for i, e := range top {
			out[i] = debugHotKey{KeyHash: e.Key, Count: e.Count, Err: e.Err}
		}
		hot[wire.HotClassName(hc.Class)] = out
	}
	return map[string]any{
		"hists":    hists,
		"counters": counters,
		"slow_ops": debugRecords(m.SlowOps),
		"traces":   debugRecords(m.Spans),
		"hot_keys": hot,
	}
}

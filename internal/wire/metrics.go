package wire

// METRICS (v5, extended in v6 and v11): the node's one observability op. A
// METRICS request carries one detail-flag byte selecting payload sections —
// histograms, counters, slow ops, traces, hot keys, bucket occupancy — and
// the response carries exactly
// the selected sections, so a dashboard polling counters every second
// does not drag kilobytes of histogram buckets along. Histograms travel
// sparse (only occupied buckets), in telemetry's log-linear bucket
// scheme, and merge losslessly across nodes: the cluster router's
// Metrics() is bucket-wise addition. Counters sum, which is why every
// counter is a count or a gauge that adds across nodes. The v6 sections are
// mergeable too: hot-key sketches union (telemetry.TopKSnapshot.Merge) and
// spans concatenate, grouped by trace ID, into the cluster-wide view of
// each traced request; occupancy lists concatenate.

import (
	"encoding/binary"
	"fmt"

	"repro/internal/telemetry"
)

// MetricsFlags is the detail-flag byte of a METRICS request, echoed in the
// response; it is a bit set selecting payload sections.
type MetricsFlags byte

// The defined METRICS detail flags. A request must select at least one
// section; undefined bits are rejected on both ends.
const (
	// MetricsHistograms selects the per-op service-time histograms.
	MetricsHistograms MetricsFlags = 1 << 0
	// MetricsCounters selects the scalar counters: the connection
	// telemetry and, since v11, the cache and server counters STATS used
	// to carry (counterFields; Metrics.Stats is their typed view).
	MetricsCounters MetricsFlags = 1 << 1
	// MetricsSlowOps selects the slow-op ring contents, oldest first.
	MetricsSlowOps MetricsFlags = 1 << 2
	// MetricsTraces selects the span ring (v6), oldest first: one record
	// per traced request the server observed.
	MetricsTraces MetricsFlags = 1 << 3
	// MetricsHotKeys selects the per-op-class hot-key sketches (v6):
	// space-saving top-K summaries of which (scrambled) keys each op
	// class touched, plus the keys whose SETs displaced residents.
	MetricsHotKeys MetricsFlags = 1 << 4
	// MetricsOccupancy selects each bucket's occupancy, in bucket order
	// (v11): the balls-into-bins load the α threshold is about.
	MetricsOccupancy MetricsFlags = 1 << 5

	// MetricsAll selects every section.
	MetricsAll = MetricsHistograms | MetricsCounters | MetricsSlowOps | MetricsTraces | MetricsHotKeys | MetricsOccupancy

	metricsFlagsDefined = MetricsAll
)

func (f MetricsFlags) validate() error {
	if f == 0 {
		return fmt.Errorf("wire: METRICS flags select no section")
	}
	if f&^metricsFlagsDefined != 0 {
		return fmt.Errorf("wire: METRICS flags %#02x has undefined bits", byte(f))
	}
	return nil
}

// HistName names a histogram ID for display. Every histogram is a per-op
// service-time histogram, and its ID is the request opcode byte (GET=1 …
// OpLast).
func HistName(id byte) string {
	if validHistID(id) {
		return Op(id).String()
	}
	return fmt.Sprintf("Hist(%d)", id)
}

// validHistID accepts every opcode: whatever the server can count, a
// METRICS response must be able to carry.
func validHistID(id byte) bool { return Op(id).defined() }

// Counter IDs of the connection telemetry. The counters after CONNS are
// read through Metrics.Stats; counterFields lists them all.
const (
	// CounterBytesIn counts request bytes read from client connections.
	CounterBytesIn byte = 1
	// CounterBytesOut counts response bytes written to client connections.
	CounterBytesOut byte = 2
	// CounterSlowOps counts operations that crossed the slow threshold
	// (ever, not just those still retained by the ring).
	CounterSlowOps byte = 3
	// CounterConns counts client connections accepted since start.
	CounterConns byte = 4
)

// Stats is the typed view of a METRICS counter section (Metrics.Stats) and
// of an occupancy section; see concurrent.Snapshot for the cache-level
// field semantics. Sets and RepairSets are tracked by the server itself:
// they split write traffic into user writes (SET and FILL) and maintenance
// writes (PUT), so repair churn never inflates the apparent user load.
// StaleRepairs counts PUTs the server rejected because it already held a
// strictly newer version — each one is a lost-update race the version
// check won.
type Stats struct {
	// BytesIn, BytesOut, SlowOps and Conns are the connection telemetry
	// (CounterBytesIn … CounterConns).
	BytesIn, BytesOut, SlowOps, Conns uint64

	Hits      uint64
	Misses    uint64
	Evictions uint64
	// ConflictEvictions counts evictions made while the cache had a free
	// slot elsewhere. The free slots include those FlushEvictions left,
	// so the refill after a rehash counts its set overflows here.
	ConflictEvictions uint64
	FlushEvictions    uint64
	Rehashes          uint64
	Pending           uint64
	Len               uint64
	Capacity          uint64
	Buckets           uint64
	Sets              uint64
	RepairSets        uint64
	StaleRepairs      uint64
	// LeasesGranted counts GETL misses answered with a nonzero token —
	// each one is a caller elected to load the origin for a key.
	LeasesGranted uint64
	// LeasesExpired counts leases that timed out unfilled; their fills, if
	// they ever arrive, answer LEASE_LOST.
	LeasesExpired uint64
	// Tombstones is the number of tombstone records currently resident —
	// versioned deletes their set has not yet evicted. A gauge, not a
	// counter, counted exactly when read.
	Tombstones uint64
	// HintsQueued counts hinted-handoff records accepted via HINT (v8) —
	// writes to an unreachable owner parked on this server for replay.
	HintsQueued uint64
	// HintsReplayed counts queued hints delivered to their target as PUTs
	// (a VERSION_STALE refusal counts: the
	// target provably holds something newer, which is all a hint wants).
	HintsReplayed uint64
	// Migrating reports an incremental rehash in progress. On the wire it
	// is the MIGRATING counter, 0 or 1 per node, so a sum counts the
	// members mid-rehash.
	Migrating bool
	// Occupancy is each bucket's resident count, in bucket order; present
	// only when the OCCUPANCY section was selected.
	Occupancy []uint64
}

// counterFields is the METRICS counter table, indexed by counter ID − 1:
// each counter's wire name and the Stats field it fills (nil for
// MIGRATING, a bool). The encoder's ID check, CounterName, Stats.Counters,
// Metrics.Stats and the ARCHITECTURE.md spec test all derive from it.
var counterFields = [...]struct {
	name  string
	field func(*Stats) *uint64
}{
	{"BYTES_IN", func(s *Stats) *uint64 { return &s.BytesIn }},
	{"BYTES_OUT", func(s *Stats) *uint64 { return &s.BytesOut }},
	{"SLOW_OPS", func(s *Stats) *uint64 { return &s.SlowOps }},
	{"CONNS", func(s *Stats) *uint64 { return &s.Conns }},
	{"HITS", func(s *Stats) *uint64 { return &s.Hits }},
	{"MISSES", func(s *Stats) *uint64 { return &s.Misses }},
	{"EVICTIONS", func(s *Stats) *uint64 { return &s.Evictions }},
	{"CONFLICT_EVICTIONS", func(s *Stats) *uint64 { return &s.ConflictEvictions }},
	{"FLUSH_EVICTIONS", func(s *Stats) *uint64 { return &s.FlushEvictions }},
	{"REHASHES", func(s *Stats) *uint64 { return &s.Rehashes }},
	{"PENDING", func(s *Stats) *uint64 { return &s.Pending }},
	{"LEN", func(s *Stats) *uint64 { return &s.Len }},
	{"CAPACITY", func(s *Stats) *uint64 { return &s.Capacity }},
	{"BUCKETS", func(s *Stats) *uint64 { return &s.Buckets }},
	{"SETS", func(s *Stats) *uint64 { return &s.Sets }},
	{"REPAIR_SETS", func(s *Stats) *uint64 { return &s.RepairSets }},
	{"STALE_REPAIRS", func(s *Stats) *uint64 { return &s.StaleRepairs }},
	{"LEASES_GRANTED", func(s *Stats) *uint64 { return &s.LeasesGranted }},
	{"LEASES_EXPIRED", func(s *Stats) *uint64 { return &s.LeasesExpired }},
	{"TOMBSTONES", func(s *Stats) *uint64 { return &s.Tombstones }},
	{"HINTS_QUEUED", func(s *Stats) *uint64 { return &s.HintsQueued }},
	{"HINTS_REPLAYED", func(s *Stats) *uint64 { return &s.HintsReplayed }},
	{"MIGRATING", nil},
}

// counterIDMax is the highest defined counter ID.
const counterIDMax = byte(len(counterFields))

// CounterName names a counter ID for display.
func CounterName(id byte) string {
	if id == 0 || id > counterIDMax {
		return fmt.Sprintf("Counter(%d)", id)
	}
	return counterFields[id-1].name
}

// Counters returns s as a METRICS counter section: every defined counter,
// in ascending ID order.
func (s *Stats) Counters() []MetricCounter {
	out := make([]MetricCounter, len(counterFields))
	for i, f := range counterFields {
		out[i].ID = byte(i + 1)
		if f.field != nil {
			out[i].Value = *f.field(s)
		} else if s.Migrating {
			out[i].Value = 1
		}
	}
	return out
}

// MissRatio returns Misses / (Hits + Misses), or 0 before any GET.
func (s Stats) MissRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Misses) / float64(total)
}

// MaxSlowOps bounds the slow-op section of one METRICS response; it caps
// the damage a corrupt count field can do and comfortably exceeds any
// real ring (telemetry.SlowRingSize is 256).
const MaxSlowOps = 4096

// MaxSpans bounds the TRACES section of one METRICS response; it
// comfortably exceeds any real ring (telemetry.SpanRingSize is 1024).
const MaxSpans = 8192

// MaxHotKeys bounds one class of the HOTKEYS section; it comfortably
// exceeds any real sketch (telemetry.DefaultTopKCapacity is 512).
const MaxHotKeys = 8192

// recordLen is the encoded size of one flight-recorder record, the one
// layout of the slow-op and TRACES sections: op and status bytes, the
// 16-byte trace ID, then key hash, duration, version and completion time
// as uint64s.
const recordLen = 1 + 1 + 16 + 8 + 8 + 8 + 8

// Hot-key class IDs: which op class a HOTKEYS sketch counts.
const (
	// HotGet counts keys by GET traffic.
	HotGet byte = 1
	// HotSet counts keys by user SET traffic.
	HotSet byte = 2
	// HotDel counts keys by DEL traffic.
	HotDel byte = 3
	// HotEvict counts keys whose SET displaced a resident entry — the
	// conflict-pressure signal: under a set-associative cache these are
	// the keys crowding others out of their buckets.
	HotEvict byte = 4

	hotClassMax = HotEvict
)

// HotClassName names a hot-key class ID for display.
func HotClassName(id byte) string {
	switch id {
	case HotGet:
		return "GET"
	case HotSet:
		return "SET"
	case HotDel:
		return "DEL"
	case HotEvict:
		return "EVICT"
	default:
		return fmt.Sprintf("HotClass(%d)", id)
	}
}

// HotKeyClass is one class's sketch in a HOTKEYS section.
type HotKeyClass struct {
	// Class is the hot-key class ID (HotGet … HotEvict).
	Class byte
	// Keys is the sketch snapshot, hottest first; keys are scrambled
	// (telemetry.HashKey), matching slow-op and span key hashes.
	Keys telemetry.TopKSnapshot
}

// OpHist is one histogram in a METRICS payload: an ID plus the dense
// snapshot (the sparse wire form is an encoding detail).
type OpHist struct {
	ID   byte
	Snap telemetry.HistogramSnapshot
}

// MetricCounter is one scalar counter in a METRICS payload.
type MetricCounter struct {
	ID    byte
	Value uint64
}

// Metrics is the payload of a METRICS response. Only the sections selected
// by Flags are present; the others are nil.
type Metrics struct {
	// Flags echoes the request's detail flags.
	Flags MetricsFlags
	// Hists are the selected histograms, in ascending ID order.
	Hists []OpHist
	// Counters are the scalar counters, in ascending ID order.
	Counters []MetricCounter
	// SlowOps is the retained slow ring, oldest first; a record carries
	// the trace ID of a slow request that was traced, all-zero otherwise.
	SlowOps []telemetry.Span
	// Spans is the retained span ring, oldest first (TRACES); every record
	// carries a nonzero trace ID.
	Spans []telemetry.Span
	// HotKeys are the per-class hot-key sketches, in ascending class ID
	// order (HOTKEYS).
	HotKeys []HotKeyClass
	// Occupancy is each bucket's resident count, in bucket order
	// (OCCUPANCY).
	Occupancy []uint64
}

// Stats returns the counter and occupancy sections as a Stats. A counter
// the payload does not carry reads as 0.
func (m *Metrics) Stats() *Stats {
	s := &Stats{Occupancy: m.Occupancy}
	for _, c := range m.Counters {
		if f := counterFields[c.ID-1].field; f != nil {
			*f(s) = c.Value
		} else {
			s.Migrating = c.Value != 0
		}
	}
	return s
}

// Hist returns the histogram with the given ID, or nil.
func (m *Metrics) Hist(id byte) *telemetry.HistogramSnapshot {
	for i := range m.Hists {
		if m.Hists[i].ID == id {
			return &m.Hists[i].Snap
		}
	}
	return nil
}

// Counter returns the counter with the given ID (0 when absent).
func (m *Metrics) Counter(id byte) uint64 {
	for _, c := range m.Counters {
		if c.ID == id {
			return c.Value
		}
	}
	return 0
}

// HotClass returns the hot-key sketch for the given class ID, or nil.
func (m *Metrics) HotClass(class byte) telemetry.TopKSnapshot {
	for _, hc := range m.HotKeys {
		if hc.Class == class {
			return hc.Keys
		}
	}
	return nil
}

// appendMetrics encodes m: the echoed flag byte, then each selected
// section. Histograms are sparse — (index uint16, count uint64) pairs in
// ascending index order — because a latency distribution occupies a few
// dozen of telemetry.NumBuckets buckets; Count is not encoded (it is the
// sum of the pairs).
func appendMetrics(body []byte, m *Metrics) ([]byte, error) {
	if err := m.Flags.validate(); err != nil {
		return nil, err
	}
	body = append(body, byte(m.Flags))
	if m.Flags&MetricsHistograms != 0 {
		body = binary.LittleEndian.AppendUint32(body, uint32(len(m.Hists)))
		for i := range m.Hists {
			h := &m.Hists[i]
			if !validHistID(h.ID) {
				return nil, fmt.Errorf("wire: METRICS histogram ID %d undefined", h.ID)
			}
			body = append(body, h.ID)
			body = binary.LittleEndian.AppendUint64(body, h.Snap.Sum)
			var occupied uint32
			for _, n := range h.Snap.Buckets {
				if n != 0 {
					occupied++
				}
			}
			body = binary.LittleEndian.AppendUint32(body, occupied)
			for idx, n := range h.Snap.Buckets {
				if n != 0 {
					body = binary.LittleEndian.AppendUint16(body, uint16(idx))
					body = binary.LittleEndian.AppendUint64(body, n)
				}
			}
		}
	}
	if m.Flags&MetricsCounters != 0 {
		body = binary.LittleEndian.AppendUint32(body, uint32(len(m.Counters)))
		for _, c := range m.Counters {
			if c.ID == 0 || c.ID > counterIDMax {
				return nil, fmt.Errorf("wire: METRICS counter ID %d undefined", c.ID)
			}
			body = append(body, c.ID)
			body = binary.LittleEndian.AppendUint64(body, c.Value)
		}
	}
	var err error
	if m.Flags&MetricsSlowOps != 0 {
		if body, err = appendRecords(body, "slow-op", m.SlowOps, MaxSlowOps, false); err != nil {
			return nil, err
		}
	}
	if m.Flags&MetricsTraces != 0 {
		if body, err = appendRecords(body, "trace", m.Spans, MaxSpans, true); err != nil {
			return nil, err
		}
	}
	if m.Flags&MetricsHotKeys != 0 {
		body = binary.LittleEndian.AppendUint32(body, uint32(len(m.HotKeys)))
		prevClass := byte(0)
		for _, hc := range m.HotKeys {
			if hc.Class == 0 || hc.Class > hotClassMax {
				return nil, fmt.Errorf("wire: METRICS hot-key class %d undefined", hc.Class)
			}
			if hc.Class <= prevClass {
				return nil, fmt.Errorf("wire: METRICS hot-key classes not ascending at %s", HotClassName(hc.Class))
			}
			prevClass = hc.Class
			if len(hc.Keys) > MaxHotKeys {
				return nil, fmt.Errorf("wire: METRICS hot-key class %s %d entries, max %d",
					HotClassName(hc.Class), len(hc.Keys), MaxHotKeys)
			}
			body = append(body, hc.Class)
			body = binary.LittleEndian.AppendUint32(body, uint32(len(hc.Keys)))
			for _, e := range hc.Keys {
				body = binary.LittleEndian.AppendUint64(body, e.Key)
				body = binary.LittleEndian.AppendUint64(body, e.Count)
				body = binary.LittleEndian.AppendUint64(body, e.Err)
			}
		}
	}
	if m.Flags&MetricsOccupancy != 0 {
		body = binary.LittleEndian.AppendUint32(body, uint32(len(m.Occupancy)))
		for _, n := range m.Occupancy {
			body = binary.LittleEndian.AppendUint64(body, n)
		}
	}
	return body, nil
}

// appendRecords encodes one flight-recorder section — the slow-op or the
// TRACES section — as a uint32 count, then each record in the one
// recordLen layout. traced is the TRACES rule: every record there carries
// a nonzero trace ID, while a slow op may carry one or not.
func appendRecords(body []byte, section string, recs []telemetry.Span, limit int, traced bool) ([]byte, error) {
	if len(recs) > limit {
		return nil, fmt.Errorf("wire: METRICS %s section %d records, max %d", section, len(recs), limit)
	}
	body = binary.LittleEndian.AppendUint32(body, uint32(len(recs)))
	for i := range recs {
		r := &recs[i]
		if traced && r.TraceID.IsZero() {
			return nil, fmt.Errorf("wire: METRICS %s record with a zero trace ID", section)
		}
		body = append(body, r.Op, r.Status)
		body = append(body, r.TraceID[:]...)
		body = binary.LittleEndian.AppendUint64(body, r.KeyHash)
		body = binary.LittleEndian.AppendUint64(body, r.DurationNanos)
		body = binary.LittleEndian.AppendUint64(body, r.Version)
		body = binary.LittleEndian.AppendUint64(body, r.UnixNanos)
	}
	return body, nil
}

// parseMetrics decodes and validates a METRICS payload. Every structural
// rule the encoder obeys is enforced: defined flags, defined IDs, sparse
// bucket indices strictly increasing and in range, nonzero bucket counts,
// bounded slow-op count, and no trailing bytes.
func parseMetrics(body []byte) (*Metrics, error) {
	if len(body) < 1 {
		return nil, fmt.Errorf("wire: METRICS payload lacks the flag byte")
	}
	m := &Metrics{Flags: MetricsFlags(body[0])}
	if err := m.Flags.validate(); err != nil {
		return nil, err
	}
	body = body[1:]
	u32 := func(section string) (int, error) {
		if len(body) < 4 {
			return 0, fmt.Errorf("wire: METRICS %s section truncated", section)
		}
		n := int(binary.LittleEndian.Uint32(body))
		body = body[4:]
		return n, nil
	}
	if m.Flags&MetricsHistograms != 0 {
		nh, err := u32("histogram")
		if err != nil {
			return nil, err
		}
		if nh > 64 {
			return nil, fmt.Errorf("wire: METRICS claims %d histograms, max 64", nh)
		}
		m.Hists = make([]OpHist, nh)
		for i := range m.Hists {
			h := &m.Hists[i]
			if len(body) < 1+8+4 {
				return nil, fmt.Errorf("wire: METRICS histogram %d truncated", i)
			}
			h.ID = body[0]
			if !validHistID(h.ID) {
				return nil, fmt.Errorf("wire: METRICS histogram ID %d undefined", h.ID)
			}
			if i > 0 && h.ID <= m.Hists[i-1].ID {
				return nil, fmt.Errorf("wire: METRICS histogram IDs not ascending at %d", h.ID)
			}
			h.Snap.Sum = binary.LittleEndian.Uint64(body[1:])
			nb := int(binary.LittleEndian.Uint32(body[9:]))
			body = body[13:]
			if nb > telemetry.NumBuckets {
				return nil, fmt.Errorf("wire: METRICS histogram %d claims %d buckets, max %d", h.ID, nb, telemetry.NumBuckets)
			}
			if len(body) < 10*nb {
				return nil, fmt.Errorf("wire: METRICS histogram %d bucket list truncated", h.ID)
			}
			prev := -1
			for b := 0; b < nb; b++ {
				idx := int(binary.LittleEndian.Uint16(body))
				n := binary.LittleEndian.Uint64(body[2:])
				body = body[10:]
				if idx >= telemetry.NumBuckets {
					return nil, fmt.Errorf("wire: METRICS histogram %d bucket index %d out of range", h.ID, idx)
				}
				if idx <= prev {
					return nil, fmt.Errorf("wire: METRICS histogram %d bucket indices not ascending at %d", h.ID, idx)
				}
				if n == 0 {
					return nil, fmt.Errorf("wire: METRICS histogram %d encodes an empty bucket %d", h.ID, idx)
				}
				prev = idx
				h.Snap.Buckets[idx] = n
				h.Snap.Count += n
			}
		}
	}
	if m.Flags&MetricsCounters != 0 {
		nc, err := u32("counter")
		if err != nil {
			return nil, err
		}
		if nc > int(counterIDMax) {
			return nil, fmt.Errorf("wire: METRICS claims %d counters, max %d", nc, counterIDMax)
		}
		m.Counters = make([]MetricCounter, nc)
		for i := range m.Counters {
			if len(body) < 9 {
				return nil, fmt.Errorf("wire: METRICS counter %d truncated", i)
			}
			id := body[0]
			if id == 0 || id > counterIDMax {
				return nil, fmt.Errorf("wire: METRICS counter ID %d undefined", id)
			}
			if i > 0 && id <= m.Counters[i-1].ID {
				return nil, fmt.Errorf("wire: METRICS counter IDs not ascending at %d", id)
			}
			m.Counters[i] = MetricCounter{ID: id, Value: binary.LittleEndian.Uint64(body[1:])}
			body = body[9:]
		}
	}
	// records decodes a flight-recorder section in appendRecords' form.
	records := func(section string, limit int, traced bool) ([]telemetry.Span, error) {
		n, err := u32(section)
		if err != nil {
			return nil, err
		}
		if n > limit {
			return nil, fmt.Errorf("wire: METRICS claims %d %s records, max %d", n, section, limit)
		}
		if len(body) < recordLen*n {
			return nil, fmt.Errorf("wire: METRICS %s records truncated", section)
		}
		recs := make([]telemetry.Span, n)
		for i := range recs {
			r := &recs[i]
			r.Op, r.Status = body[0], body[1]
			copy(r.TraceID[:], body[2:])
			r.KeyHash = binary.LittleEndian.Uint64(body[18:])
			r.DurationNanos = binary.LittleEndian.Uint64(body[26:])
			r.Version = binary.LittleEndian.Uint64(body[34:])
			r.UnixNanos = binary.LittleEndian.Uint64(body[42:])
			if traced && r.TraceID.IsZero() {
				return nil, fmt.Errorf("wire: METRICS %s record %d has a zero trace ID", section, i)
			}
			body = body[recordLen:]
		}
		return recs, nil
	}
	var err error
	if m.Flags&MetricsSlowOps != 0 {
		if m.SlowOps, err = records("slow-op", MaxSlowOps, false); err != nil {
			return nil, err
		}
	}
	if m.Flags&MetricsTraces != 0 {
		if m.Spans, err = records("trace", MaxSpans, true); err != nil {
			return nil, err
		}
	}
	if m.Flags&MetricsHotKeys != 0 {
		nc, err := u32("hot-key")
		if err != nil {
			return nil, err
		}
		if nc > int(hotClassMax) {
			return nil, fmt.Errorf("wire: METRICS claims %d hot-key classes, max %d", nc, hotClassMax)
		}
		m.HotKeys = make([]HotKeyClass, nc)
		for i := range m.HotKeys {
			if len(body) < 5 {
				return nil, fmt.Errorf("wire: METRICS hot-key class %d truncated", i)
			}
			class := body[0]
			if class == 0 || class > hotClassMax {
				return nil, fmt.Errorf("wire: METRICS hot-key class %d undefined", class)
			}
			if i > 0 && class <= m.HotKeys[i-1].Class {
				return nil, fmt.Errorf("wire: METRICS hot-key classes not ascending at %s", HotClassName(class))
			}
			ne := int(binary.LittleEndian.Uint32(body[1:]))
			body = body[5:]
			if ne > MaxHotKeys {
				return nil, fmt.Errorf("wire: METRICS hot-key class %s claims %d entries, max %d",
					HotClassName(class), ne, MaxHotKeys)
			}
			if len(body) < 24*ne {
				return nil, fmt.Errorf("wire: METRICS hot-key class %s entries truncated", HotClassName(class))
			}
			keys := make(telemetry.TopKSnapshot, ne)
			for j := range keys {
				keys[j] = telemetry.TopKEntry{
					Key:   binary.LittleEndian.Uint64(body),
					Count: binary.LittleEndian.Uint64(body[8:]),
					Err:   binary.LittleEndian.Uint64(body[16:]),
				}
				if j > 0 {
					prev := keys[j-1]
					if keys[j].Count > prev.Count || (keys[j].Count == prev.Count && keys[j].Key <= prev.Key) {
						return nil, fmt.Errorf("wire: METRICS hot-key class %s entries not in canonical order at %d",
							HotClassName(class), j)
					}
				}
				body = body[24:]
			}
			m.HotKeys[i] = HotKeyClass{Class: class, Keys: keys}
		}
	}
	if m.Flags&MetricsOccupancy != 0 {
		nb, err := u32("occupancy")
		if err != nil {
			return nil, err
		}
		if nb > len(body)/8 {
			return nil, fmt.Errorf("wire: METRICS occupancy section claims %d buckets, %d bytes remain", nb, len(body))
		}
		m.Occupancy = make([]uint64, nb)
		for i := range m.Occupancy {
			m.Occupancy[i] = binary.LittleEndian.Uint64(body[8*i:])
		}
		body = body[8*nb:]
	}
	if len(body) != 0 {
		return nil, fmt.Errorf("wire: METRICS payload has %d trailing bytes", len(body))
	}
	return m, nil
}

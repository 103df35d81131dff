package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// These tests pin the wire-protocol specification in ARCHITECTURE.md to the
// implementation: every constant the document states — magic, version,
// frame cap, opcode and status codes, request body layouts, and the METRICS
// counter table — is parsed out of the markdown tables and compared against
// the package. Charge the spec, forget the code (or vice versa), and CI
// fails.

// specDoc loads ARCHITECTURE.md from the repository root.
func specDoc(t *testing.T) string {
	t.Helper()
	b, err := os.ReadFile("../../ARCHITECTURE.md")
	if err != nil {
		t.Fatalf("the wire spec lives in ARCHITECTURE.md and must exist: %v", err)
	}
	return string(b)
}

// specSection returns the part of doc between the heading containing
// marker and the next heading of the same or higher level.
func specSection(t *testing.T, doc, marker string) string {
	t.Helper()
	idx := strings.Index(doc, marker)
	if idx < 0 {
		t.Fatalf("ARCHITECTURE.md lacks the %q section", marker)
	}
	rest := doc[idx:]
	if end := strings.Index(rest[1:], "\n#"); end >= 0 {
		return rest[:end+1]
	}
	return rest
}

// tableCodes extracts |NAME|number| rows from a markdown section.
func tableCodes(section string) map[string]int {
	rows := regexp.MustCompile(`(?m)^\|\s*([A-Z_]+)\s*\|\s*(\d+)\s*\|`).FindAllStringSubmatch(section, -1)
	out := make(map[string]int, len(rows))
	for _, r := range rows {
		n, _ := strconv.Atoi(r[2])
		out[r[1]] = n
	}
	return out
}

func TestSpecPreambleAndLimits(t *testing.T) {
	doc := specDoc(t)

	pre := specSection(t, doc, "### Preamble")
	magic := regexp.MustCompile(`\|\s*magic\s*\|\s*\[4\]byte\s*\|\s*"([A-Z]+)"`).FindStringSubmatch(pre)
	if magic == nil || magic[1] != Magic {
		t.Errorf("spec magic = %v, implementation %q", magic, Magic)
	}
	version := regexp.MustCompile(`\|\s*version\s*\|\s*uint32\s*\|\s*(\d+)`).FindStringSubmatch(pre)
	if version == nil || version[1] != strconv.Itoa(Version) {
		t.Errorf("spec version = %v, implementation %d", version, Version)
	}

	limits := specSection(t, doc, "### Limits")
	for _, lim := range []struct {
		name string
		impl int
	}{
		{"MaxFrame", MaxFrame},
		{"KeysChunk", DefaultKeysChunk},
		{"MaxMembers", MaxMembers},
		{"MaxAddrLen", MaxAddrLen},
	} {
		got := regexp.MustCompile(`\|\s*` + lim.name + `\s*\|\s*(\d+)\s*\|`).FindStringSubmatch(limits)
		if got == nil || got[1] != strconv.Itoa(lim.impl) {
			t.Errorf("spec %s = %v, implementation %d", lim.name, got, lim.impl)
		}
	}
}

func TestSpecOpcodes(t *testing.T) {
	codes := tableCodes(specSection(t, specDoc(t), "### Request opcodes"))
	// Every defined opcode up to OpLast — the range telemetry is sized
	// and validated by — must be documented; 4 (STATS until v11), 5
	// (REHASH until v15) and 7 (MEMBERS until v12) stay unassigned.
	defined := 0
	for op := OpGet; op <= OpLast; op++ {
		if !op.defined() {
			if op != 4 && op != 5 && op != 7 {
				t.Errorf("opcode %d has no name in opNames", int(op))
			}
			continue
		}
		defined++
		if got, ok := codes[op.String()]; !ok || got != int(op) {
			t.Errorf("spec %s = %d (listed=%v), implementation %d", op, got, ok, int(op))
		}
	}
	if len(codes) != defined || defined != 10 {
		t.Errorf("spec lists %d opcodes, implementation defines %d, want 10", len(codes), defined)
	}
}

func TestSpecStatuses(t *testing.T) {
	codes := tableCodes(specSection(t, specDoc(t), "### Response statuses"))
	want := []Status{StatusHit, StatusMiss, StatusOK, StatusError, StatusKeys, StatusMembers, StatusVersionStale, StatusMetrics, StatusLease, StatusLeaseLost}
	if len(codes) != len(want) {
		t.Errorf("spec lists %d statuses, implementation has %d", len(codes), len(want))
	}
	for _, st := range want {
		if got, ok := codes[st.String()]; !ok || got != int(st) {
			t.Errorf("spec %s = %d (listed=%v), implementation %d", st, got, ok, int(st))
		}
	}
}

// TestSpecTombstones pins the normative text of deletion: the
// DEL-as-versioned-write semantics, the 17-byte KEYS record layout, the
// record PUT and HINT share (and its one rule), and the deletion invariant
// section the whole layer rests on.
func TestSpecTombstones(t *testing.T) {
	doc := specDoc(t)

	ops := specSection(t, doc, "### Request opcodes")
	if !regexp.MustCompile(`HINT\s*\|\s*11\s*\|\s*target-len byte, target bytes, record`).MatchString(ops) {
		t.Error("spec HINT row must document the hint body: target, then the record")
	}
	if !regexp.MustCompile(`(?is)record.*?key uint64,\s+version uint64,\s+tombstone byte \(0 or 1\),\s+value bytes`).MatchString(ops) {
		t.Error("spec must document the record layout PUT and HINT share")
	}
	if !regexp.MustCompile(`(?is)DEL.*?since v8.*?versioned write, not an erasure`).MatchString(ops) {
		t.Error("spec must state that DEL is a versioned write since v8")
	}
	if !regexp.MustCompile(`(?i)zero version is a protocol error`).MatchString(ops) {
		t.Error("spec must state that a zero-version record is a protocol error")
	}
	if !regexp.MustCompile(`(?i)tombstone\s+record carrying a value`).MatchString(ops) {
		t.Error("spec must state that a tombstone record carrying a value is rejected")
	}

	statuses := specSection(t, doc, "### Response statuses")
	if !regexp.MustCompile(`(?is)DEL.*?always answers OK.*?tombstone's freshly assigned version`).MatchString(statuses) {
		t.Error("spec DEL note must state the always-OK response carrying the tombstone version")
	}
	if !regexp.MustCompile(`key uint64, version uint64, tombstone byte \(17 bytes each\)`).MatchString(statuses) {
		t.Error("spec KEYS row must document the 17-byte record layout")
	}

	inv := specSection(t, doc, "### Deletion invariant")
	for _, sentence := range []string{
		`(?i)maintenance write can never resurrect a deleted key`,
		`(?i)delete propagates like a write`,
		`(?i)lease path cannot resurrect`,
		`(?i)a tombstone lives until its set evicts it`,
		`(?i)bounded by the anti-entropy period`,
	} {
		if !regexp.MustCompile(sentence).MatchString(inv) {
			t.Errorf("spec deletion invariant section must match %q", sentence)
		}
	}
}

// TestSpecVersionedWrites pins the three write operations' rows and the
// normative sentences of versioning: SET carries no version, PUT carries
// the record's, HIT responses carry the stored version, and VERSION_STALE
// replies to a PUT with the winning version.
func TestSpecVersionedWrites(t *testing.T) {
	doc := specDoc(t)
	ops := specSection(t, doc, "### Request opcodes")
	for _, row := range []string{
		`SET\s*\|\s*2\s*\|\s*key uint64, value bytes\s*\|`,
		`FILL\s*\|\s*12\s*\|\s*key uint64, token uint64, value bytes\s*\|`,
		`PUT\s*\|\s*13\s*\|\s*record\s*\|`,
	} {
		if !regexp.MustCompile(row).MatchString(ops) {
			t.Errorf("spec request table must have the row %q", row)
		}
	}
	if !regexp.MustCompile(`(?is)PUT.*?stored verbatim.*?strictly newer`).MatchString(ops) {
		t.Error("spec must state PUT's strictly-newer store rule")
	}
	statuses := specSection(t, doc, "### Response statuses")
	if !regexp.MustCompile(`HIT\s*\|\s*1\s*\|\s*version uint64, value bytes`).MatchString(statuses) {
		t.Error("spec HIT row must document the leading version field")
	}
	if !regexp.MustCompile(`VERSION_STALE\s*\|\s*8\s*\|\s*stored version uint64\s*\|\s*PUT\s*\|`).MatchString(statuses) {
		t.Error("spec VERSION_STALE row must reply to PUT")
	}
	if !regexp.MustCompile(`(?is)VERSION_STALE.*?not strictly newer`).MatchString(statuses) {
		t.Error("spec must state VERSION_STALE's strictly-newer rejection rule")
	}
}

// TestSpecTopologyPayload pins the topology payload table: field order and
// types must match the encoder (epoch uint64, count uint32, then repeated
// uint16-length-prefixed addresses).
func TestSpecTopologyPayload(t *testing.T) {
	section := specSection(t, specDoc(t), "### Topology payload")
	rows := regexp.MustCompile(`(?m)^\|\s*(\w+)\s*\|\s*(\w+)\s*\|`).FindAllStringSubmatch(section, -1)
	var fields []string
	for _, r := range rows {
		if r[1] == "field" {
			continue // header row
		}
		fields = append(fields, r[1]+":"+r[2])
	}
	want := []string{"Epoch:uint64", "Count:uint32", "AddrLen:uint16", "Addr:bytes"}
	if len(fields) != len(want) {
		t.Fatalf("spec topology payload lists %v, want %v", fields, want)
	}
	for i := range want {
		if fields[i] != want[i] {
			t.Errorf("spec topology payload field %d = %q, want %q", i+1, fields[i], want[i])
		}
	}
}

// TestSpecEpochInResponses pins the normative sentence that every response
// carries the topology epoch between status byte and fields — the
// staleness piggyback clients rely on.
func TestSpecEpochInResponses(t *testing.T) {
	section := specSection(t, specDoc(t), "### Response statuses")
	if !regexp.MustCompile(`(?i)every.*response.*epoch|epoch.*every.*response`).MatchString(section) {
		t.Error("spec response-status section must state that every response carries the topology epoch")
	}
	if !strings.Contains(section, "terminated by a KEYS frame with count 0") {
		t.Error("spec must document the KEYS stream terminator (a KEYS frame with count 0)")
	}
}

// TestSpecMetricsFlags pins the METRICS detail-flag bits against the
// implementation.
func TestSpecMetricsFlags(t *testing.T) {
	section := specSection(t, specDoc(t), "### METRICS detail flags")
	for _, f := range []struct {
		name string
		impl MetricsFlags
	}{
		{"HISTOGRAMS", MetricsHistograms},
		{"COUNTERS", MetricsCounters},
		{"SLOW_OPS", MetricsSlowOps},
		{"TRACES", MetricsTraces},
		{"HOTKEYS", MetricsHotKeys},
		{"OCCUPANCY", MetricsOccupancy},
	} {
		row := regexp.MustCompile(`\|\s*` + f.name + `\s*\|\s*0x([0-9a-fA-F]+)\s*\|`).FindStringSubmatch(section)
		if row == nil {
			t.Fatalf("spec lacks the %s flag row", f.name)
		}
		bit, err := strconv.ParseUint(row[1], 16, 8)
		if err != nil || MetricsFlags(bit) != f.impl {
			t.Errorf("spec %s = 0x%s, implementation %#02x", f.name, row[1], byte(f.impl))
		}
	}
	if metricsFlagsDefined != MetricsHistograms|MetricsCounters|MetricsSlowOps|MetricsTraces|MetricsHotKeys|MetricsOccupancy {
		t.Error("metricsFlagsDefined grew; document the new flag bit in ARCHITECTURE.md and extend this test")
	}
}

// TestSpecMetricsPayload pins the METRICS payload section: histogram and
// counter ID codes (the whole counter table, in order), the bucket-count
// bound stated for the sparse encoding, the slow-op record field order,
// and the MaxSlowOps cap.
func TestSpecMetricsPayload(t *testing.T) {
	section := specSection(t, specDoc(t), "### METRICS payload")

	// The stated bucket bound must be telemetry's NumBuckets.
	if !strings.Contains(section, strconv.Itoa(telemetry.NumBuckets)+" buckets total") {
		t.Errorf("spec must state the %d-bucket total of the log-linear scheme", telemetry.NumBuckets)
	}
	if !strings.Contains(section, "1/"+strconv.Itoa(telemetry.SubBuckets)+" relative error") {
		t.Errorf("spec must state the 1/%d quantile error bound", telemetry.SubBuckets)
	}

	codes := tableCodes(section)
	counters := regexp.MustCompile(`(?m)^\|\s*([A-Z_]+)\s*\|\s*(\d+)\s*\|\s*(count|gauge)\s*\|`).FindAllStringSubmatch(section, -1)
	if len(counters) != int(counterIDMax) {
		t.Errorf("spec lists %d counters, implementation has %d", len(counters), counterIDMax)
	}
	for i, row := range counters {
		id, _ := strconv.Atoi(row[2])
		if id != i+1 || row[1] != CounterName(byte(id)) {
			t.Errorf("spec counter row %d = %s %d, implementation %s %d", i+1, row[1], id, CounterName(byte(i+1)), i+1)
		}
	}
	for _, id := range []byte{CounterBytesIn, CounterBytesOut, CounterSlowOps, CounterConns} {
		if codes[CounterName(id)] != int(id) {
			t.Errorf("spec %s = %d, implementation %d", CounterName(id), codes[CounterName(id)], id)
		}
	}
	if !regexp.MustCompile(`(?i)MIGRATING.*?0 or 1`).MatchString(section) {
		t.Error("spec must state that MIGRATING is 0 or 1 per node")
	}

	if !regexp.MustCompile(`MaxSlowOps\s*=\s*` + strconv.Itoa(MaxSlowOps)).MatchString(section) {
		t.Errorf("spec must state MaxSlowOps = %d", MaxSlowOps)
	}
	if !regexp.MustCompile(`MaxSpans\s*=\s*` + strconv.Itoa(MaxSpans)).MatchString(section) {
		t.Errorf("spec must state MaxSpans = %d", MaxSpans)
	}
	if !regexp.MustCompile(`MaxHotKeys\s*=\s*` + strconv.Itoa(MaxHotKeys)).MatchString(section) {
		t.Errorf("spec must state MaxHotKeys = %d", MaxHotKeys)
	}

	// Flight-recorder record field order, the one layout of the slow-op
	// and trace sections (rows marked "per record"), and its encoded size.
	rows := regexp.MustCompile(`(?m)^\|\s*(\w+)\s*\|\s*\[?\d*\]?(\w+)\s*\|\s*per record`).FindAllStringSubmatch(section, -1)
	var fields []string
	for _, r := range rows {
		fields = append(fields, r[1]+":"+r[2])
	}
	want := []string{"Op:byte", "Status:byte", "TraceID:byte", "KeyHash:uint64", "DurationNanos:uint64", "Version:uint64", "UnixNanos:uint64"}
	if len(fields) != len(want) {
		t.Fatalf("spec record lists %v, want %v", fields, want)
	}
	for i := range want {
		if fields[i] != want[i] {
			t.Errorf("spec record field %d = %q, want %q", i+1, fields[i], want[i])
		}
	}
	if !strings.Contains(section, strconv.Itoa(recordLen)+" bytes") {
		t.Errorf("spec must state the %d-byte record length", recordLen)
	}

	// Per-op histogram IDs are the opcode bytes; the spec states the range.
	if want := fmt.Sprintf("GET = 1 … %v = %d", OpLast, int(OpLast)); !strings.Contains(section, want) {
		t.Errorf("spec must state per-op histogram IDs %s", want)
	}

	// Hot-key entry field order (rows marked "per entry") and class IDs.
	entryRows := regexp.MustCompile(`(?m)^\|\s*(\w+)\s*\|\s*(\w+)\s*\|\s*per entry`).FindAllStringSubmatch(section, -1)
	fields = fields[:0]
	for _, r := range entryRows {
		fields = append(fields, r[1]+":"+r[2])
	}
	want = []string{"Key:uint64", "Count:uint64", "Err:uint64"}
	if len(fields) != len(want) {
		t.Fatalf("spec hot-key entry lists %v, want %v", fields, want)
	}
	for i := range want {
		if fields[i] != want[i] {
			t.Errorf("spec hot-key entry field %d = %q, want %q", i+1, fields[i], want[i])
		}
	}
	for _, hc := range []byte{HotGet, HotSet, HotDel, HotEvict} {
		if got, ok := codes[HotClassName(hc)]; !ok || got != int(hc) {
			t.Errorf("spec hot-key class %s = %d (listed=%v), implementation %d", HotClassName(hc), got, ok, hc)
		}
	}
	if !regexp.MustCompile(`(?i)count descending,?\s*key ascending`).MatchString(section) {
		t.Error("spec must state the canonical hot-key entry order: Count descending, Key ascending")
	}
}

// TestSpecStatsPayload pins where the STATS payload went in v11: the spec
// records the op's removal (opcode 4 and status 4 unassigned) and states
// that METRICS counter IDs 5 onwards carry the former STATS fields, each of
// which fills a Stats field except MIGRATING, a bool. The counter table's
// order is pinned by TestSpecMetricsPayload.
func TestSpecStatsPayload(t *testing.T) {
	doc := specDoc(t)
	if !regexp.MustCompile(`(?s)Version 11 \*\*removed\*\* the STATS op.*?Opcode 4 and status 4 stay unassigned`).MatchString(doc) {
		t.Error("spec must record that v11 removed STATS and left opcode 4 and status 4 unassigned")
	}
	if !strings.Contains(specSection(t, doc, "### METRICS payload"), "IDs 5 onwards were the STATS payload") {
		t.Error("spec must state that counter IDs 5 onwards were the STATS payload")
	}
	for id := byte(5); id <= counterIDMax; id++ {
		if mapped := counterFields[id-1].field != nil; mapped != (CounterName(id) != "MIGRATING") {
			t.Errorf("counter %s: fills a Stats uint64 = %v; only MIGRATING may not", CounterName(id), mapped)
		}
	}
}

// TestSpecTraceContext pins the trace-context layout: the TRACED opcode
// bit and the 16-byte trace ID (v15), and that a traced frame is its
// untraced form with the bit set and the ID inserted after the opcode
// byte.
func TestSpecTraceContext(t *testing.T) {
	section := specSection(t, specDoc(t), "### Trace context")

	row := regexp.MustCompile(`\|\s*TRACED\s*\|\s*0x([0-9a-fA-F]+)\s*\|`).FindStringSubmatch(section)
	if row == nil {
		t.Fatal("spec lacks the TRACED opcode-bit row")
	}
	if bit, err := strconv.ParseUint(row[1], 16, 8); err != nil || byte(bit) != OpFlagTraced {
		t.Errorf("spec TRACED = 0x%s, implementation %#02x", row[1], OpFlagTraced)
	}

	// The context is the TraceID alone; the spec states its length and
	// lists it as the one field.
	idLen := len(Request{}.Trace)
	if !strings.Contains(section, strconv.Itoa(idLen)+"-byte") {
		t.Errorf("spec must state the %d-byte trace-context length", idLen)
	}
	fields := regexp.MustCompile(`(?m)^\|\s*(\w+)\s*\|\s*(\[\d+\]byte|byte|uint\d+)\s*\|`).FindAllStringSubmatch(section, -1)
	if len(fields) != 1 || fields[0][1] != "TraceID" || fields[0][2] != "[16]byte" {
		t.Errorf("spec trace context lists %v, want the one TraceID [16]byte field", fields)
	}

	encode := func(req Request) []byte {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.WriteRequest(req); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	id := testTraceID(7)
	plain := encode(Request{Op: OpGet, Key: 42})
	want := binary.LittleEndian.AppendUint32(nil, uint32(len(plain)-4+idLen))
	want = append(want, plain[4]|OpFlagTraced)
	want = append(want, id[:]...)
	want = append(want, plain[5:]...)
	if got := encode(Request{Op: OpGet, Key: 42, Trace: id}); !bytes.Equal(got, want) {
		t.Errorf("traced GET = %x, want its untraced form with the TRACED bit and the ID: %x", got, want)
	}
	if !regexp.MustCompile(`(?i)all-zero is a protocol error`).MatchString(section) {
		t.Error("spec must state that an all-zero trace ID is a protocol error")
	}
}

// TestSpecLeasePayload pins the lease protocol's normative text: the
// lease payload table (field order and types), its fixed 12-byte length,
// the LEASE_LOST body, and the lease invariant section the conditional
// fill rests on.
func TestSpecLeasePayload(t *testing.T) {
	doc := specDoc(t)
	section := specSection(t, doc, "### Lease payload")

	rows := regexp.MustCompile(`(?m)^\|\s*(\w+)\s*\|\s*(\w+)\s*\|`).FindAllStringSubmatch(section, -1)
	var fields []string
	for _, r := range rows {
		if r[1] == "field" {
			continue // header row
		}
		fields = append(fields, r[1]+":"+r[2])
	}
	want := []string{"Token:uint64", "TTLms:uint32"}
	if len(fields) != len(want) {
		t.Fatalf("spec lease payload lists %v, want %v", fields, want)
	}
	for i := range want {
		if fields[i] != want[i] {
			t.Errorf("spec lease payload field %d = %q, want %q", i+1, fields[i], want[i])
		}
	}
	if !regexp.MustCompile(`(?i)exactly 12 bytes after the epoch`).MatchString(section) {
		t.Error("spec must state the fixed 12-byte length of the lease payload")
	}

	statuses := specSection(t, doc, "### Response statuses")
	if !regexp.MustCompile(`LEASE_LOST\s*\|\s*11\s*\|\s*winning version uint64 \(0 = absent\)\s*\|\s*FILL\s*\|`).MatchString(statuses) {
		t.Error("spec LEASE_LOST row must document the winning-version body with 0 = absent, replying to FILL")
	}
	if !regexp.MustCompile(`(?is)FILL\s+carrying a zero token is rejected`).MatchString(specSection(t, doc, "### Request opcodes")) {
		t.Error("spec must state that a FILL with a zero token is rejected")
	}

	inv := specSection(t, doc, "### Lease invariant")
	for _, sentence := range []string{
		`(?i)lease lives in\s+the key's store record`,
		`(?i)granted \*\*only on a miss\*\*, decided under the bucket lock`,
		`(?is)only while.*?record still carries the\s+unexpired lease its token names`,
		`(?is)ends the lease by\s+construction`,
		`(?is)one fill lands per lease`,
		`(?is)no\s+stale copy`,
	} {
		if !regexp.MustCompile(sentence).MatchString(inv) {
			t.Errorf("spec lease invariant section must match %q", sentence)
		}
	}
}

package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// testTraceID builds a distinct nonzero trace ID for tests.
func testTraceID(b byte) (id telemetry.TraceID) {
	id[0] = b
	id[15] = ^b
	return id
}

func TestRequestRoundTrip(t *testing.T) {
	reqs := []Request{
		{Op: OpGet, Key: 42},
		{Op: OpSet, Key: 7, Value: []byte("hello world")},
		{Op: OpSet, Key: 8, Value: nil}, // empty value is legal
		{Op: OpPut, Key: 11, Version: 1 << 50, Value: []byte("maintenance")},
		{Op: OpPut, Key: 12, Version: 7, Value: nil},
		{Op: OpPut, Key: 13, Version: 8, Tombstone: true},
		{Op: OpHint, Target: "10.0.0.7:7070", Key: 14, Version: 9, Value: []byte("parked")},
		{Op: OpHint, Target: "n", Key: 15, Version: 10, Tombstone: true},
		{Op: OpDel, Key: 1 << 60},
		{Op: OpRehash},
		{Op: OpTopology}, // the empty offer: a read
		{Op: OpTopology, Topology: Topology{Epoch: 7, Members: []string{"a:1", "b:2"}}},
		// v6 traced requests: context rides between the opcode byte and the
		// op fields, sampled or not, on reads and maintenance writes alike.
		{Op: OpGet, Key: 42, Traced: true, Trace: TraceContext{ID: testTraceID(1), Flags: TraceFlagSampled}},
		{Op: OpGet, Key: 43, Traced: true, Trace: TraceContext{ID: testTraceID(2)}}, // propagated, unsampled
		{Op: OpSet, Key: 44, Value: []byte("traced"), Traced: true, Trace: TraceContext{ID: testTraceID(3), Flags: TraceFlagSampled}},
		{Op: OpPut, Key: 45, Version: 9,
			Value: []byte("traced repair"), Traced: true, Trace: TraceContext{ID: testTraceID(4), Flags: TraceFlagSampled}},
		{Op: OpDel, Key: 46, Traced: true, Trace: TraceContext{ID: testTraceID(5), Flags: TraceFlagSampled}},
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, req := range reqs {
		if err := w.WriteRequest(req); err != nil {
			t.Fatalf("write %v: %v", req.Op, err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	for i, want := range reqs {
		got, err := r.ReadRequest()
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if got.Op != want.Op || got.Key != want.Key || got.Version != want.Version ||
			got.Tombstone != want.Tombstone || got.Target != want.Target {
			t.Fatalf("request %d = %+v, want %+v", i, got, want)
		}
		if got.Traced != want.Traced || got.Trace != want.Trace {
			t.Fatalf("request %d trace = %v/%+v, want %v/%+v", i, got.Traced, got.Trace, want.Traced, want.Trace)
		}
		if !bytes.Equal(got.Value, want.Value) {
			t.Fatalf("request %d value = %q, want %q", i, got.Value, want.Value)
		}
		if !slices.Equal(got.Topology.Members, want.Topology.Members) || got.Topology.Epoch != want.Topology.Epoch {
			t.Fatalf("request %d topology = %+v, want %+v", i, got.Topology, want.Topology)
		}
	}
	if _, err := r.ReadRequest(); err == nil {
		t.Fatal("expected EOF after last request")
	}
}

func TestResponseRoundTrip(t *testing.T) {
	resps := []Response{
		{Status: StatusHit, Epoch: 5, Value: []byte("payload")},
		{Status: StatusHit, Epoch: 5, Version: 1 << 40, Value: []byte("versioned payload")},
		{Status: StatusMiss, Epoch: 1 << 50},
		{Status: StatusOK, Evicted: true},
		{Status: StatusOK, Evicted: false, Epoch: 9}, // REHASH's or HINT's: version 0
		{Status: StatusOK, Evicted: true, Epoch: 9, Version: 12345},
		{Status: StatusVersionStale, Epoch: 2, Version: 1 << 41},
		{Status: StatusError, Err: "boom", Epoch: 4},
		{Status: StatusMembers, Epoch: 7, Topology: Topology{Epoch: 7, Members: []string{"n1:7070", "n2:7070"}}},
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, resp := range resps {
		if err := w.WriteResponse(resp); err != nil {
			t.Fatalf("write %v: %v", resp.Status, err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	for i, want := range resps {
		got, err := r.ReadResponse()
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if got.Status != want.Status || got.Evicted != want.Evicted || got.Err != want.Err || got.Epoch != want.Epoch || got.Version != want.Version {
			t.Fatalf("response %d = %+v, want %+v", i, got, want)
		}
		if !reflect.DeepEqual(got.Topology.Members, want.Topology.Members) || got.Topology.Epoch != want.Topology.Epoch {
			t.Fatalf("response %d topology = %+v, want %+v", i, got.Topology, want.Topology)
		}
		if !bytes.Equal(got.Value, want.Value) {
			t.Fatalf("response %d value = %q, want %q", i, got.Value, want.Value)
		}
	}
}

func TestPreamble(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WritePreamble(); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := NewReader(&buf).ReadPreamble(); err != nil {
		t.Fatalf("good preamble rejected: %v", err)
	}

	if err := NewReader(strings.NewReader("XXXX\x01\x00\x00\x00")).ReadPreamble(); err == nil {
		t.Fatal("bad magic accepted")
	}
	if err := NewReader(strings.NewReader(Magic + "\x99\x00\x00\x00")).ReadPreamble(); err == nil {
		t.Fatal("bad version accepted")
	}
}

func TestOversizeFrameRejected(t *testing.T) {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], MaxFrame+1)
	r := NewReader(bytes.NewReader(hdr[:]))
	if _, err := r.ReadRequest(); err == nil {
		t.Fatal("oversize frame accepted")
	}
}

func TestMalformedRequestRejected(t *testing.T) {
	frame := func(body []byte) *Reader {
		var buf bytes.Buffer
		var ln [4]byte
		binary.LittleEndian.PutUint32(ln[:], uint32(len(body)))
		buf.Write(ln[:])
		buf.Write(body)
		return NewReader(&buf)
	}
	// A GET with a 3-byte key must be rejected.
	if _, err := frame([]byte{byte(OpGet), 1, 2, 3}).ReadRequest(); err == nil {
		t.Fatal("short GET accepted")
	}
	// A SET whose body ends inside the key.
	if _, err := frame([]byte{byte(OpSet), 1, 2, 3}).ReadRequest(); err == nil {
		t.Fatal("short SET accepted")
	}
	// rec builds a PUT or HINT body from its prefix (the HINT's target; a
	// PUT body is exactly one record) and the record fields.
	rec := func(op Op, prefix []byte, version uint64, tomb byte, value string) []byte {
		body := append([]byte{byte(op)}, prefix...)
		body = binary.LittleEndian.AppendUint64(body, 7) // key
		body = binary.LittleEndian.AppendUint64(body, version)
		return append(append(body, tomb), value...)
	}
	for _, op := range []struct {
		op     Op
		prefix []byte
	}{{OpPut, nil}, {OpHint, []byte("\x03a:1")}} {
		// The rules of a record, shared by PUT and HINT through one helper.
		req, err := frame(rec(op.op, op.prefix, 5, 0, "v")).ReadRequest()
		if err != nil {
			t.Fatalf("well-formed %v rejected: %v", op.op, err)
		}
		if req.Key != 7 || req.Version != 5 || req.Tombstone || string(req.Value) != "v" {
			t.Fatalf("%v record decoded as %+v", op.op, req)
		}
		if _, err := frame(rec(op.op, op.prefix, 0, 0, "v")).ReadRequest(); err == nil {
			t.Fatalf("%v with a zero version accepted", op.op)
		}
		if _, err := frame(rec(op.op, op.prefix, 5, 2, "")).ReadRequest(); err == nil {
			t.Fatalf("%v with tombstone byte 2 accepted", op.op)
		}
		if _, err := frame(rec(op.op, op.prefix, 5, 1, "v")).ReadRequest(); err == nil {
			t.Fatalf("tombstone %v carrying a value accepted", op.op)
		}
		short := rec(op.op, op.prefix, 5, 0, "")
		if _, err := frame(short[:len(short)-3]).ReadRequest(); err == nil {
			t.Fatalf("%v with a truncated record accepted", op.op)
		}
	}
	// HINT's prefix: an empty target, a truncated one.
	if _, err := frame(rec(OpHint, []byte{0}, 5, 0, "v")).ReadRequest(); err == nil {
		t.Fatal("HINT with an empty target accepted")
	}
	if _, err := frame([]byte{byte(OpHint), 9, 'a'}).ReadRequest(); err == nil {
		t.Fatal("HINT with a truncated target accepted")
	}
	// Opcodes 4 (STATS until v11) and 7 (MEMBERS until v12) stay
	// unassigned, on both ends.
	for _, op := range []byte{4, 7} {
		if _, err := frame([]byte{op, 0}).ReadRequest(); err == nil {
			t.Fatalf("request with the retired opcode %d accepted", op)
		}
		if _, err := frame([]byte{op}).ReadRequest(); err == nil {
			t.Fatalf("empty-bodied request with the retired opcode %d accepted", op)
		}
		if err := NewWriter(io.Discard).WriteRequest(Request{Op: Op(op)}); err == nil {
			t.Fatalf("encoder accepted the retired opcode %d", op)
		}
	}
	// A traced frame whose body ends inside the trace context.
	body := []byte{byte(OpGet) | OpFlagTraced, 1, 2, 3}
	if _, err := frame(body).ReadRequest(); err == nil {
		t.Fatal("traced GET with a truncated trace context accepted")
	}
	// A trace context with a zero trace ID is a bug, not a frame.
	body = append([]byte{byte(OpGet) | OpFlagTraced}, make([]byte, TraceContextLen)...)
	body = append(body, make([]byte, 8)...) // key
	if _, err := frame(body).ReadRequest(); err == nil {
		t.Fatal("traced GET with a zero trace ID accepted")
	}
	// Undefined trace-flag bits must be rejected.
	body = append([]byte{byte(OpGet) | OpFlagTraced}, 0xAB)
	body = append(body, make([]byte, 15)...) // rest of the ID
	body = append(body, 0x80)                // undefined trace flag bit
	body = append(body, make([]byte, 8)...)  // key
	if _, err := frame(body).ReadRequest(); err == nil {
		t.Fatal("trace context with undefined flag bits accepted")
	}
	// The encoder refuses the same ill-formed requests.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, req := range []Request{
		{Op: OpPut, Key: 1, Value: []byte("v")},                              // zero version
		{Op: OpPut, Key: 1, Version: 5, Tombstone: true, Value: []byte("v")}, // tombstone with a value
		{Op: OpHint, Target: "a:1", Key: 1},                                  // zero version
		{Op: OpHint, Target: "a:1", Key: 1, Version: 5, Tombstone: true, Value: []byte("v")},
		{Op: OpHint, Key: 1, Version: 5}, // no target
	} {
		if err := w.WriteRequest(req); err == nil {
			t.Fatalf("encoder accepted %+v", req)
		}
	}
	if err := w.WriteRequest(Request{Op: OpGet, Traced: true}); err == nil {
		t.Fatal("encoder accepted a zero trace ID")
	}
	if err := w.WriteRequest(Request{Op: OpGet, Traced: true, Trace: TraceContext{ID: testTraceID(1), Flags: 0x80}}); err == nil {
		t.Fatal("encoder accepted undefined trace flag bits")
	}
}

// TestTopologyOffer pins the TOPOLOGY rule at both ends: an offer with no
// members is a read and carries epoch 0; a bare nonzero epoch over no
// members is refused by the encoder and by ReadRequest alike, so one frame
// cannot plant a high epoch with nothing behind it.
func TestTopologyOffer(t *testing.T) {
	// frame hand-builds a TOPOLOGY request, bypassing the encoder.
	frame := func(epoch uint64, members ...string) []byte {
		body := appendTopology([]byte{byte(OpTopology)}, Topology{Epoch: epoch, Members: members})
		return append(binary.LittleEndian.AppendUint32(nil, uint32(len(body))), body...)
	}
	cases := []struct {
		name    string
		epoch   uint64
		members []string
		ok      bool
	}{
		{"read", 0, nil, true},
		{"founding offer", 0, []string{"a:1"}, true},
		{"newer offer", 5, []string{"a:1", "b:1"}, true},
		{"empty offer at epoch 1", 1, nil, false},
		{"empty offer at epoch 99", 99, nil, false},
	}
	for _, c := range cases {
		raw := frame(c.epoch, c.members...)
		req, err := NewReader(bytes.NewReader(raw)).ReadRequest()
		if (err == nil) != c.ok {
			t.Fatalf("%s: ReadRequest err = %v, want ok=%v", c.name, err, c.ok)
		}
		var out bytes.Buffer
		w := NewWriter(&out)
		werr := w.WriteRequest(Request{Op: OpTopology, Topology: Topology{Epoch: c.epoch, Members: c.members}})
		if (werr == nil) != c.ok {
			t.Fatalf("%s: encoder err = %v, want ok=%v", c.name, werr, c.ok)
		}
		if !c.ok {
			continue
		}
		if req.Topology.Epoch != c.epoch || !slices.Equal(req.Topology.Members, c.members) {
			t.Errorf("%s: decoded %+v", c.name, req.Topology)
		}
		// The decoded request re-encodes to the bytes that arrived, and
		// the encoder's own frame is those bytes too.
		var again bytes.Buffer
		w2 := NewWriter(&again)
		if err := w2.WriteRequest(*req); err != nil {
			t.Fatalf("%s: re-encoding the decoded offer: %v", c.name, err)
		}
		if err := errors.Join(w.Flush(), w2.Flush()); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), raw) || !bytes.Equal(out.Bytes(), raw) {
			t.Errorf("%s: frame %x re-encodes to %x, encodes to %x", c.name, raw, again.Bytes(), out.Bytes())
		}
	}
}

// TestTopologyValidate pins the payload sanity rules shared by encoder and
// decoder.
func TestTopologyValidate(t *testing.T) {
	long := strings.Repeat("x", MaxAddrLen+1)
	many := make([]string, MaxMembers+1)
	for i := range many {
		many[i] = fmt.Sprintf("n%d", i)
	}
	cases := []struct {
		name string
		t    Topology
		ok   bool
	}{
		{"empty", Topology{}, true},
		{"normal", Topology{Epoch: 3, Members: []string{"a:1", "b:1"}}, true},
		{"dup", Topology{Members: []string{"a:1", "a:1"}}, false},
		{"empty addr", Topology{Members: []string{""}}, false},
		{"oversize addr", Topology{Members: []string{long}}, false},
		{"too many", Topology{Members: many}, false},
	}
	for _, c := range cases {
		if err := c.t.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
	// A malformed payload must fail to decode, not panic or alias garbage:
	// claim 2 members but deliver bytes for half of one.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteResponse(Response{Status: StatusMembers, Topology: Topology{Epoch: 1, Members: []string{"abc"}}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Frame body layout: len(4) status(1) epoch(8) tEpoch(8) count(4)...;
	// bump the member count to 2 without adding bytes.
	binary.LittleEndian.PutUint32(raw[4+1+8+8:], 2)
	if _, err := NewReader(bytes.NewReader(raw)).ReadResponse(); err == nil {
		t.Fatal("truncated topology payload accepted")
	}
}

package wire

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"
)

// TestLeaseRequestRoundTrip pins the lease request shapes: GETL frames and
// FILLs carrying the fill token, traced and untraced.
func TestLeaseRequestRoundTrip(t *testing.T) {
	reqs := []Request{
		{Op: OpGetLease, Key: 42},
		{Op: OpGetLease, Key: 1 << 60, Trace: testTraceID(9)},
		{Op: OpFill, Key: 7, LeaseToken: 1, Value: []byte("fill")},
		{Op: OpFill, Key: 8, LeaseToken: 1 << 63, Value: nil}, // empty fill is legal
		{Op: OpFill, Key: 9, LeaseToken: 3, Value: []byte("traced fill"),
			Trace: testTraceID(10)},
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, req := range reqs {
		if err := w.WriteRequest(req); err != nil {
			t.Fatalf("write %+v: %v", req, err)
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
		if got.Op != want.Op || got.Key != want.Key || got.LeaseToken != want.LeaseToken {
			t.Fatalf("request %d = %+v, want %+v", i, got, want)
		}
		if got.Trace != want.Trace {
			t.Fatalf("request %d trace = %s, want %s", i, got.Trace, want.Trace)
		}
		if !bytes.Equal(got.Value, want.Value) {
			t.Fatalf("request %d value = %q, want %q", i, got.Value, want.Value)
		}
	}
}

// TestLeaseResponseRoundTrip pins the two LEASE payload shapes — grant
// and wait — and the LEASE_LOST refusal.
func TestLeaseResponseRoundTrip(t *testing.T) {
	resps := []Response{
		{Status: StatusLease, Epoch: 3, LeaseToken: 99, LeaseTTL: 2 * time.Second}, // grant
		{Status: StatusLease, Epoch: 3, LeaseTTL: 150 * time.Millisecond},          // wait
		{Status: StatusLeaseLost, Epoch: 5, Version: 1 << 41},
		{Status: StatusLeaseLost, Epoch: 5}, // winning version unknown
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, resp := range resps {
		if err := w.WriteResponse(resp); err != nil {
			t.Fatalf("write %+v: %v", resp, err)
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
		if got.Status != want.Status || got.Epoch != want.Epoch || got.LeaseToken != want.LeaseToken ||
			got.Version != want.Version {
			t.Fatalf("response %d = %+v, want %+v", i, got, want)
		}
		if got.Status == StatusLease && got.LeaseTTL != want.LeaseTTL {
			t.Fatalf("response %d TTL = %v, want %v", i, got.LeaseTTL, want.LeaseTTL)
		}
		if !bytes.Equal(got.Value, want.Value) {
			t.Fatalf("response %d value = %q, want %q", i, got.Value, want.Value)
		}
	}
}

// TestMalformedLeaseRequestRejected pins the decoder's and encoder's
// refusal of every ill-formed lease request: zero tokens and truncated
// token fields.
func TestMalformedLeaseRequestRejected(t *testing.T) {
	frame := func(body []byte) *Reader {
		var buf bytes.Buffer
		var ln [4]byte
		binary.LittleEndian.PutUint32(ln[:], uint32(len(body)))
		buf.Write(ln[:])
		buf.Write(body)
		return NewReader(&buf)
	}
	// A GETL with a short key must be rejected like a GET.
	if _, err := frame([]byte{byte(OpGetLease), 1, 2, 3}).ReadRequest(); err == nil {
		t.Fatal("short GETL accepted")
	}
	// A FILL with a zero token is a protocol error: the server never
	// grants token 0, so a zero can only be an encoding bug.
	body := append([]byte{byte(OpFill)}, make([]byte, 8)...) // key
	body = append(body, make([]byte, 8)...)                  // token = 0
	body = append(body, 'v')
	if _, err := frame(body).ReadRequest(); err == nil {
		t.Fatal("FILL with a zero token accepted")
	}
	// A FILL whose body ends before the token field.
	body = append([]byte{byte(OpFill)}, make([]byte, 8)...)
	body = append(body, 1, 2, 3)
	if _, err := frame(body).ReadRequest(); err == nil {
		t.Fatal("FILL with a truncated token field accepted")
	}
	// The encoder refuses the zero token too.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteRequest(Request{Op: OpFill, LeaseToken: 0, Value: []byte("v")}); err == nil {
		t.Fatal("encoder accepted a zero lease token")
	}
}

// TestMalformedLeaseResponseRejected pins the client-side refusal of
// every ill-formed LEASE and LEASE_LOST payload: zero TTLs and wrong
// lengths, the retired v12 shapes (a stale byte, a stale hint) among
// them.
func TestMalformedLeaseResponseRejected(t *testing.T) {
	// leaseFrame builds a raw LEASE response frame from its payload parts.
	leaseFrame := func(token uint64, ttlMs uint32, tail ...byte) *Reader {
		body := []byte{byte(StatusLease)}
		body = binary.LittleEndian.AppendUint64(body, 1) // epoch
		body = binary.LittleEndian.AppendUint64(body, token)
		body = binary.LittleEndian.AppendUint32(body, ttlMs)
		body = append(body, tail...)
		var buf bytes.Buffer
		var ln [4]byte
		binary.LittleEndian.PutUint32(ln[:], uint32(len(body)))
		buf.Write(ln[:])
		buf.Write(body)
		return NewReader(&buf)
	}
	staleTail := func(ver uint64, val string) []byte {
		tail := []byte{1}
		tail = binary.LittleEndian.AppendUint64(tail, ver)
		return append(tail, val...)
	}
	if _, err := leaseFrame(7, 0).ReadResponse(); err == nil {
		t.Fatal("LEASE with a zero TTL accepted")
	}
	if _, err := leaseFrame(7, 100, 0).ReadResponse(); err == nil {
		t.Fatal("LEASE with a v12 stale byte accepted")
	}
	if _, err := leaseFrame(0, 100, staleTail(9, "v")...).ReadResponse(); err == nil {
		t.Fatal("LEASE carrying a v12 stale hint accepted")
	}
	if _, err := leaseFrame(0, 100).ReadResponse(); err != nil {
		t.Fatalf("well-formed wait rejected: %v", err)
	}

	// LEASE_LOST must carry exactly the winning version.
	lostFrame := func(tail ...byte) *Reader {
		body := []byte{byte(StatusLeaseLost)}
		body = binary.LittleEndian.AppendUint64(body, 1) // epoch
		body = append(body, tail...)
		var buf bytes.Buffer
		var ln [4]byte
		binary.LittleEndian.PutUint32(ln[:], uint32(len(body)))
		buf.Write(ln[:])
		buf.Write(body)
		return NewReader(&buf)
	}
	if _, err := lostFrame(1, 2, 3).ReadResponse(); err == nil {
		t.Fatal("short LEASE_LOST accepted")
	}
	if _, err := lostFrame(make([]byte, 9)...).ReadResponse(); err == nil {
		t.Fatal("oversize LEASE_LOST accepted")
	}
}

// TestHistogramNames pins the per-op histogram ID space to the opcode
// space: metrics collected for any opcode must name and validate, so a
// server that counts an op can always export it. The unassigned opcode 4
// is no histogram ID.
func TestHistogramNames(t *testing.T) {
	for op := OpGet; op <= OpLast; op++ {
		if !op.defined() {
			if validHistID(byte(op)) {
				t.Errorf("undefined opcode %d validates as a histogram ID", byte(op))
			}
			continue
		}
		if !validHistID(byte(op)) {
			t.Errorf("%v opcode is not a valid histogram ID", op)
		}
		if got := HistName(byte(op)); got != op.String() {
			t.Errorf("HistName(%v) = %q", op, got)
		}
	}
	if validHistID(0) || validHistID(byte(OpLast)+1) {
		t.Error("histogram IDs outside the opcode space validate")
	}
}

package wire

import (
	"bytes"
	"errors"
	"testing"
)

// failWriter accepts okCalls Write calls and fails every one after, so
// tests can kill a flush at an exact segment boundary — including in the
// middle of a multi-segment (vectored) flush.
type failWriter struct {
	okCalls int
	calls   int
	wrote   int
	boom    error
}

func (f *failWriter) Write(p []byte) (int, error) {
	f.calls++
	if f.calls > f.okCalls {
		return 0, f.boom
	}
	f.wrote += len(p)
	return len(p), nil
}

// TestWriterFlushErrorSticky: a failed flush must poison the Writer — the
// buffered frames are discarded, every later call returns the same error,
// and nothing is ever written again. Resending would put half a frame (or
// a duplicate one) on a stream the peer has already desynchronized from.
func TestWriterFlushErrorSticky(t *testing.T) {
	boom := errors.New("pipe burst")
	fw := &failWriter{okCalls: 0, boom: boom}
	w := NewWriter(fw)
	if err := w.WriteRequest(Request{Op: OpGet, Key: 7}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != boom {
		t.Fatalf("Flush = %v, want %v", err, boom)
	}
	if err := w.WriteRequest(Request{Op: OpGet, Key: 8}); err != boom {
		t.Fatalf("WriteRequest after failed flush = %v, want sticky %v", err, boom)
	}
	if err := w.WriteResponse(Response{Status: StatusMiss}); err != boom {
		t.Fatalf("WriteResponse after failed flush = %v, want sticky %v", err, boom)
	}
	calls := fw.calls
	if err := w.Flush(); err != boom {
		t.Fatalf("second Flush = %v, want sticky %v", err, boom)
	}
	if fw.calls != calls {
		t.Fatalf("sticky Writer wrote again: %d calls, want %d", fw.calls, calls)
	}
}

// TestWriterFlushErrorMidWritev: the corked path sends a flush as multiple
// segments (frame chunk + zero-copy value). A failure after the first
// segment must not leave the unsent tail — or the half-sent head — behind
// as reusable scratch: the Writer goes sticky and never writes again.
func TestWriterFlushErrorMidWritev(t *testing.T) {
	boom := errors.New("reset mid-writev")
	fw := &failWriter{okCalls: 1, boom: boom}
	w := NewWriter(fw)
	val := make([]byte, zeroCopyMin) // big enough to travel as its own segment
	if err := w.WriteRequest(Request{Op: OpSet, Key: 1, Value: val}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != boom {
		t.Fatalf("Flush = %v, want %v", err, boom)
	}
	if fw.calls < 2 {
		t.Fatalf("flush made %d Write calls, want ≥2 (chunk + value segment)", fw.calls)
	}
	calls, wrote := fw.calls, fw.wrote
	if err := w.Flush(); err != boom {
		t.Fatalf("Flush after mid-writev failure = %v, want sticky %v", err, boom)
	}
	if err := w.WriteRequest(Request{Op: OpGet, Key: 2}); err != boom {
		t.Fatalf("WriteRequest after mid-writev failure = %v, want sticky %v", err, boom)
	}
	if fw.calls != calls || fw.wrote != wrote {
		t.Fatalf("sticky Writer wrote again after partial flush (%d calls/%d bytes, was %d/%d)",
			fw.calls, fw.wrote, calls, wrote)
	}
}

// TestCodecScratchShrinks pins the shrink-on-idle policy on both codec
// ends: one oversized frame (a big KEYS chunk) must not pin its buffer on
// the connection forever once traffic goes back to small frames.
func TestCodecScratchShrinks(t *testing.T) {
	big := make([]KeyRec, 2*codecShrinkCap/keyRecLen) // 2× the cap once encoded
	var stream bytes.Buffer
	w := NewWriter(&stream)
	if err := w.WriteResponse(Response{Status: StatusKeys, Keys: big}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if cap(w.chunk) <= codecShrinkCap {
		t.Fatalf("precondition: chunk cap %d not grown past %d", cap(w.chunk), codecShrinkCap)
	}
	for i := 0; i < codecIdleFrames; i++ {
		if err := w.WriteResponse(Response{Status: StatusMiss}); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if cap(w.chunk) > codecShrinkCap {
		t.Errorf("writer chunk cap %d after %d idle flushes, want ≤%d",
			cap(w.chunk), codecIdleFrames, codecShrinkCap)
	}

	r := NewReader(&stream)
	resp, err := r.ReadResponse()
	if err != nil || len(resp.Keys) != len(big) {
		t.Fatalf("big KEYS frame: %d keys, %v", len(resp.Keys), err)
	}
	if cap(r.body) <= codecShrinkCap {
		t.Fatalf("precondition: body cap %d not grown past %d", cap(r.body), codecShrinkCap)
	}
	for i := 0; i < codecIdleFrames; i++ {
		if resp, err := r.ReadResponse(); err != nil || resp.Status != StatusMiss {
			t.Fatalf("small frame %d: %v, %v", i, resp.Status, err)
		}
	}
	if cap(r.body) > codecShrinkCap {
		t.Errorf("reader body cap %d after %d small frames, want ≤%d",
			cap(r.body), codecIdleFrames, codecShrinkCap)
	}
	if r.keys != nil {
		t.Errorf("reader keys buffer survived the shrink (cap %d)", cap(r.keys))
	}
}

// TestZeroCopyValueRoundTrip: request values at and above zeroCopyMin
// travel as their own flush segment with the frame length counting them as
// external bytes — the frames must still decode byte-identically on the
// other end, interleaved with copied (small) values and a large HIT, which
// is always copied, in the same flush.
func TestZeroCopyValueRoundTrip(t *testing.T) {
	bigVal := make([]byte, zeroCopyMin+3)
	for i := range bigVal {
		bigVal[i] = byte(i * 7)
	}
	smallVal := []byte("tiny")

	var stream bytes.Buffer
	w := NewWriter(&stream)
	if err := w.WriteRequest(Request{Op: OpSet, Key: 1, Value: bigVal}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRequest(Request{Op: OpSet, Key: 2, Value: smallVal}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteResponse(Response{Status: StatusHit, Version: 9, Value: bigVal}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r := NewReader(&stream)
	req, err := r.ReadRequest()
	if err != nil || req.Key != 1 || !bytes.Equal(req.Value, bigVal) {
		t.Fatalf("zero-copy SET decoded key=%d len=%d err=%v", req.Key, len(req.Value), err)
	}
	req, err = r.ReadRequest()
	if err != nil || req.Key != 2 || !bytes.Equal(req.Value, smallVal) {
		t.Fatalf("copied SET decoded key=%d %q err=%v", req.Key, req.Value, err)
	}
	resp, err := r.ReadResponse()
	if err != nil || resp.Status != StatusHit || resp.Version != 9 || !bytes.Equal(resp.Value, bigVal) {
		t.Fatalf("large HIT decoded %v ver=%d len=%d err=%v",
			resp.Status, resp.Version, len(resp.Value), err)
	}
}

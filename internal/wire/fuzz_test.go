package wire

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// The decoders face the network, so they are defended by search rather
// than by example: whatever bytes arrive, a decoder must not panic, must
// not buffer more than the MaxFrame its length prefix is capped at, and —
// the property that replaces a table of legal shapes — must accept only
// frames that re-encode to exactly the bytes that arrived, so no two byte
// strings mean the same thing and nothing a decoder lets in is something
// the encoder would refuse to send. The seed corpus under testdata/fuzz
// holds one well-formed and one truncated frame per opcode and status.
// Some seeds are retired shapes the decoder must refuse: the
// FuzzReadRequest/MEMBERS seeds are v11 frames of opcode 7, retired in v12
// (its truncation is an empty body), and the FuzzReadResponse/LEASE-stale
// seeds are v12 stale-hint LEASE bodies, retired in v13.

// frameOf returns the first frame of b — length prefix and body — which
// is what a decoder that accepted b consumed.
func frameOf(b []byte) []byte {
	return b[:4+binary.LittleEndian.Uint32(b)]
}

func FuzzReadRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		r := NewReader(bytes.NewReader(b))
		req, err := r.ReadRequest()
		if cap(r.body) > MaxFrame {
			t.Fatalf("decoder buffered %d bytes, MaxFrame is %d", cap(r.body), MaxFrame)
		}
		if err != nil {
			return
		}
		var out bytes.Buffer
		w := NewWriter(&out)
		if err := w.WriteRequest(*req); err != nil {
			t.Fatalf("accepted frame %x decodes to %+v, which the encoder refuses: %v", frameOf(b), *req, err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), frameOf(b)) {
			t.Fatalf("accepted frame %x re-encodes to %x", frameOf(b), out.Bytes())
		}
	})
}

func FuzzReadResponse(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		r := NewReader(bytes.NewReader(b))
		resp, err := r.ReadResponse()
		if cap(r.body) > MaxFrame {
			t.Fatalf("decoder buffered %d bytes, MaxFrame is %d", cap(r.body), MaxFrame)
		}
		if err != nil {
			return
		}
		var out bytes.Buffer
		w := NewWriter(&out)
		if err := w.Respond(resp); err != nil {
			t.Fatalf("accepted %v frame %x is one the encoder refuses: %v", resp.Status, frameOf(b), err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), frameOf(b)) {
			t.Fatalf("accepted %v frame %x re-encodes to %x", resp.Status, frameOf(b), out.Bytes())
		}
	})
}

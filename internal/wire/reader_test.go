package wire

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"
	"time"
)

// The Reader decodes a frame that fits its stream buffer in place and
// copies a larger one into its scratch body. These tests hold the two
// paths to one behaviour: the same decoded frames, the same errors, and a
// Buffered count that never includes the frame just decoded.

// newReaderSize is NewReader with a small stream buffer, so frames cross
// the buffer's edge at a few dozen bytes instead of at 64 KiB.
func newReaderSize(r io.Reader, size int) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, size)}
}

// encodeSets returns one SET frame per value, in order.
func encodeSets(t *testing.T, vals [][]byte) []byte {
	t.Helper()
	var stream bytes.Buffer
	w := NewWriter(&stream)
	for i, v := range vals {
		if err := w.WriteRequest(Request{Op: OpSet, Key: uint64(i), Value: v}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return stream.Bytes()
}

// TestReaderFrameSizesAcrossBuffer decodes SET frames whose length sits
// on both sides of the stream buffer's size — in place, exactly filling
// it, one byte over, far over — interleaved so each path runs right after
// the other, and checks every frame decodes to what was sent.
func TestReaderFrameSizesAcrossBuffer(t *testing.T) {
	const size = 64 // bufio's minimum is 16; a frame here is 13 bytes + value
	var vals [][]byte
	for _, n := range []int{0, 1, size - 14, size - 13, size - 12, size, 3 * size, 2, 10 * size, size - 13} {
		v := make([]byte, n)
		for i := range v {
			v[i] = byte(n + i)
		}
		vals = append(vals, v)
	}
	r := newReaderSize(bytes.NewReader(encodeSets(t, vals)), size)
	for i, want := range vals {
		req, err := r.ReadRequest()
		if err != nil {
			t.Fatalf("frame %d (%d-byte value): %v", i, len(want), err)
		}
		if req.Op != OpSet || req.Key != uint64(i) || !bytes.Equal(req.Value, want) {
			t.Fatalf("frame %d decoded op %v key %d %d-byte value, want SET %d with its %d bytes", i, req.Op, req.Key, len(req.Value), i, len(want))
		}
	}
	if _, err := r.ReadRequest(); err != io.EOF {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}
}

// TestReaderTruncatedFrame cuts a stream at every byte of a frame that
// fits the buffer and of one that does not: a cut before the frame's
// first byte is a clean io.EOF, any other cut an io.ErrUnexpectedEOF —
// returned, not waited on.
func TestReaderTruncatedFrame(t *testing.T) {
	for _, valLen := range []int{5, 200} { // in place, then scratch, at size 64
		stream := encodeSets(t, [][]byte{make([]byte, valLen)})
		for cut := 0; cut < len(stream); cut++ {
			done := make(chan error, 1)
			go func() {
				_, err := newReaderSize(bytes.NewReader(stream[:cut]), 64).ReadRequest()
				done <- err
			}()
			select {
			case err := <-done:
				want := io.ErrUnexpectedEOF
				if cut == 0 {
					want = io.EOF
				}
				if !errors.Is(err, want) {
					t.Errorf("%d-byte value cut at %d of %d bytes: %v, want %v", valLen, cut, len(stream), err, want)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("%d-byte value cut at %d: ReadRequest hangs", valLen, cut)
			}
		}
	}
}

// TestReaderBufferedExcludesHeldFrame: the server flushes when Buffered
// reads 0, so the frame just decoded in place — still in the stream
// buffer until the next read — must not count, and every frame behind it
// must.
func TestReaderBufferedExcludesHeldFrame(t *testing.T) {
	stream := encodeSets(t, [][]byte{[]byte("a"), []byte("bb"), []byte("ccc")})
	r := NewReader(bytes.NewReader(stream))
	rest := len(stream)
	for i := 1; i <= 3; i++ {
		if _, err := r.ReadRequest(); err != nil {
			t.Fatal(err)
		}
		rest -= 4 + 1 + 8 + i // length prefix, opcode, key, value
		if got := r.Buffered(); got != rest {
			t.Fatalf("after frame %d: Buffered %d, want %d", i, got, rest)
		}
	}
}

// countingConn is an in-memory connection: writes are dropped, and each
// Read returns everything left of src that fits, so reads counts exactly
// how many syscalls a socket holding the whole batch would take.
type countingConn struct {
	src   bytes.Reader
	reads int
}

func (c *countingConn) Read(p []byte) (int, error) {
	c.reads++
	return c.src.Read(p)
}
func (c *countingConn) Write(p []byte) (int, error) { return len(p), nil }
func (c *countingConn) Close() error                { return nil }

// TestClientReadsBatchInOneRead is the read budget of a pipelined batch:
// a client consumes 16 HITs of 1 KiB with one Read, and of 4 KiB (66 KB
// in all, just over the stream buffer) with two.
func TestClientReadsBatchInOneRead(t *testing.T) {
	for _, tc := range []struct{ valLen, reads int }{{1 << 10, 1}, {4 << 10, 2}} {
		t.Run(fmt.Sprintf("%dB", tc.valLen), func(t *testing.T) {
			keys := make([]uint64, 16)
			var stream bytes.Buffer
			w := NewWriter(&stream)
			for i := range keys {
				keys[i] = uint64(i)
				val := bytes.Repeat([]byte{byte(i)}, tc.valLen)
				if err := w.WriteResponse(Response{Status: StatusHit, Version: 1, Value: val}); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			conn := &countingConn{}
			conn.src.Reset(stream.Bytes())
			c, err := NewClient(conn)
			if err != nil {
				t.Fatal(err)
			}
			err = c.GetBatch(keys, func(i int, hit bool, value []byte) {
				if !hit || len(value) != tc.valLen || value[0] != byte(i) || value[tc.valLen-1] != byte(i) {
					t.Errorf("key %d: hit=%v, %d-byte value, want its own %d bytes", i, hit, len(value), tc.valLen)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if conn.reads != tc.reads {
				t.Errorf("16 HITs of %d B (%d B of frames) took %d Reads, want %d", tc.valLen, stream.Len(), conn.reads, tc.reads)
			}
		})
	}
}

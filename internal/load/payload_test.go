package load

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// refPayload and refVerify are the byte-at-a-time loops Payload and
// VerifyPayload replaced, kept as their reference.
func refPayload(key uint64, size int) []byte {
	if size < 8 {
		size = 8
	}
	v := make([]byte, size)
	binary.LittleEndian.PutUint64(v, key)
	fill := byte(key>>3) | 1
	for i := 8; i < size; i++ {
		v[i] = fill
	}
	return v
}

func refVerify(key uint64, v []byte) bool {
	if len(v) < 8 || binary.LittleEndian.Uint64(v) != key {
		return false
	}
	fill := byte(key>>3) | 1
	for _, b := range v[8:] {
		if b != fill {
			return false
		}
	}
	return true
}

// payloadKeys covers 0 and ^0, fills of 0x01 (key>>3 ≡ 0 mod 256) and 0xFF
// (key>>3 ≡ 0xFE or 0xFF mod 256), and a few arbitrary keys.
var payloadKeys = []uint64{0, ^uint64(0), 0x7, 0x800, 0x7F0, 0x7F8, 0xFFF0, 1, 42, 0xdeadbeefcafe, 1 << 40}

// TestPayloadMatchesReference: byte for byte, at every size from 0 to
// 4100, so every doubling step and its remainder is covered.
func TestPayloadMatchesReference(t *testing.T) {
	for _, key := range payloadKeys {
		for size := 0; size <= 4100; size++ {
			if got, want := Payload(key, size), refPayload(key, size); !bytes.Equal(got, want) {
				t.Fatalf("Payload(%#x, %d) differs from the byte loop's %d bytes", key, size, len(want))
			}
		}
	}
}

// TestVerifyPayloadMatchesReference runs both checks over every case the
// contract names and requires the same verdict, plus the verdict the
// contract itself demands: any single flipped byte is rejected wherever it
// sits, any truncation of at least 8 bytes is accepted (length is not
// checked), and anything shorter than 8 bytes is rejected.
func TestVerifyPayloadMatchesReference(t *testing.T) {
	for _, key := range payloadKeys {
		for _, size := range []int{8, 9, 10, 16, 17, 64, 1024, 4096, 4100} {
			v := Payload(key, size)
			for n := 0; n <= size; n++ {
				want := n >= 8
				if got, ref := VerifyPayload(key, v[:n]), refVerify(key, v[:n]); got != ref || got != want {
					t.Fatalf("key %#x: VerifyPayload on %d of %d bytes = %v, reference %v, want %v", key, n, size, got, ref, want)
				}
			}
			if VerifyPayload(key+1, v) != refVerify(key+1, v) {
				t.Fatalf("key %#x size %d: verdicts differ for the wrong key", key, size)
			}
			for i := range v {
				for _, flip := range []byte{0x01, 0x80, 0xFF} {
					v[i] ^= flip
					got, ref := VerifyPayload(key, v), refVerify(key, v)
					v[i] ^= flip
					if got || ref {
						t.Fatalf("key %#x size %d: byte %d ^ %#x accepted (new %v, reference %v)", key, size, i, flip, got, ref)
					}
				}
			}
		}
	}
}

var payloadSizes = []struct {
	name string
	size int
}{{"64B", 64}, {"1KiB", 1 << 10}, {"4KiB", 4 << 10}}

// payloadSink keeps BenchmarkPayload's results alive.
var payloadSink []byte

// BenchmarkPayload prices one read-through payload at the value sizes the
// benchmark's workloads use, allocation included.
func BenchmarkPayload(b *testing.B) {
	for _, s := range payloadSizes {
		b.Run(s.name, func(b *testing.B) {
			b.SetBytes(int64(s.size))
			for i := 0; i < b.N; i++ {
				payloadSink = Payload(uint64(i), s.size)
			}
		})
	}
}

// BenchmarkVerifyPayload prices checking one hit's payload.
func BenchmarkVerifyPayload(b *testing.B) {
	for _, s := range payloadSizes {
		b.Run(s.name, func(b *testing.B) {
			v := Payload(42, s.size)
			b.SetBytes(int64(s.size))
			for i := 0; i < b.N; i++ {
				if !VerifyPayload(42, v) {
					b.Fatal("payload rejected")
				}
			}
		})
	}
}

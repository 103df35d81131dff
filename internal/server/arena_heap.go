//go:build !unix || race

package server

// newChunk allocates one chunk on the Go heap: the source where there is
// no mmap, and under the race detector, which sees only Go-allocated
// memory, so that -race checks the arena's record hand-offs too.
func newChunk() []byte { return alignChunk(make([]byte, 2*chunkSize)) }

//go:build unix && !race

package server

import "syscall"

// newChunk maps one anonymous chunk outside the Go heap. It maps twice the
// chunk and uses the aligned half; pages count toward the resident set
// only once written, so the untouched rest costs address space alone.
// Should the mapping fail, the chunk comes from the heap instead: the
// arena works the same on either.
func newChunk() []byte {
	m, err := syscall.Mmap(-1, 0, 2*chunkSize, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		m = make([]byte, 2*chunkSize)
	}
	return alignChunk(m)
}

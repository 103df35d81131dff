//go:build unix && !race

package server

import "syscall"

// newChunk maps one anonymous chunk outside the Go heap. Its pages count
// toward the resident set only once written. Should the mapping fail, the
// chunk comes from the heap instead: the arena works the same on either.
func newChunk() []byte {
	c, err := syscall.Mmap(-1, 0, chunkSize, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return make([]byte, chunkSize)
	}
	return c
}

package server

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// The arena keeps the server's stored values out of the collected heap: a
// slab allocator in the manner of memcached's (Nishtala et al., "Scaling
// Memcache at Facebook", NSDI 2013, §5.2). It carves 1 MiB chunks into
// size classes, four to a power of two (×1, ×1.25, ×1.5, ×1.75) from 64 B
// to 256 KiB, so 64 B, 1 KiB and 4 KiB values fit exactly and no value of
// 64 B or more wastes over a quarter of its length. Chunks come from
// newChunk, which maps them outside the Go heap where it can, so a node's
// value memory is its resident bytes rounded up to a class, and the
// collector's goal covers only the keys, records and buffers around them.
// A larger value is an ordinary heap slice.
//
// A buffer is handed out by alloc, filled once by the write that owns it,
// stored in the server's cache, and given back by free when the store
// releases the record holding it (concurrent.Cache.SetRelease). The store
// releases under the set lock, and every read of a stored value happens
// under the same lock (concurrent.Cache.View), so a recycled buffer is
// never read through its old record.
//
// A class's chunks stay with that class: when the value sizes shift, the
// old classes keep their memory. That is memcached's slab calcification;
// rebalancing is out of scope.
const (
	minClass   = 64
	maxClass   = 256 << 10
	chunkSize  = 1 << 20
	numClasses = 49 // 64 B, then 4 classes per doubling up to 2^18
)

// classSizes[c] is the buffer length of class c.
var classSizes = func() (s [numClasses]int) {
	s[0] = minClass
	for c := 1; c < numClasses; c++ {
		e := 6 + (c-1)/4 // class c holds sizes in (2^e, 2^(e+1)]
		s[c] = 1<<e + ((c-1)%4+1)<<(e-2)
	}
	return s
}()

// classOf returns the smallest class that holds n bytes, 0 < n ≤ maxClass.
func classOf(n int) int {
	if n <= minClass {
		return 0
	}
	e := bits.Len(uint(n-1)) - 1 // 2^e < n ≤ 2^(e+1)
	step := 1 << (e - 2)
	return (e-6)*4 + (n-1<<e+step-1)/step
}

// arena is one server's slab allocator. Its methods are safe for
// concurrent use; it must not be used after close.
type arena struct {
	classes [numClasses]slabClass

	mu     sync.Mutex
	chunks [][]byte // every chunk the arena holds, returned to the pool at close
}

// slabClass is one size class: its free buffers and the uncarved rest of
// its newest chunk.
type slabClass struct {
	mu   sync.Mutex
	free [][]byte // released buffers, reused last in first out
	rest []byte
}

// alloc returns a buffer of length n that the caller owns until it passes
// it to free: an arena buffer up to maxClass, a heap slice above, nil for
// n = 0.
func (a *arena) alloc(n int) []byte {
	if n == 0 {
		return nil
	}
	if n > maxClass {
		return make([]byte, n)
	}
	c := classOf(n)
	size := classSizes[c]
	sc := &a.classes[c]
	sc.mu.Lock()
	var buf []byte
	if k := len(sc.free) - 1; k >= 0 {
		buf = sc.free[k]
		sc.free[k] = nil
		sc.free = sc.free[:k]
	} else {
		if len(sc.rest) < size {
			sc.rest = a.chunk()
		}
		buf, sc.rest = sc.rest[:size:size], sc.rest[size:]
	}
	sc.mu.Unlock()
	return buf[:n]
}

// free gives back a buffer alloc returned. A heap slice above maxClass,
// and nil, are left to the collector.
func (a *arena) free(buf []byte) {
	size := cap(buf)
	if size == 0 || size > maxClass {
		return
	}
	sc := &a.classes[classOf(size)]
	sc.mu.Lock()
	sc.free = append(sc.free, buf[:size])
	sc.mu.Unlock()
}

// chunk returns a fresh chunk for a class to carve, drawn from the
// process-wide pool before a new one is mapped.
func (a *arena) chunk() []byte {
	chunkPool.mu.Lock()
	var c []byte
	if k := len(chunkPool.free) - 1; k >= 0 {
		c = chunkPool.free[k]
		chunkPool.free[k] = nil
		chunkPool.free = chunkPool.free[:k]
	}
	chunkPool.mu.Unlock()
	if c == nil {
		c = newChunk()
		mappedBytes.Add(chunkSize)
	}
	a.mu.Lock()
	a.chunks = append(a.chunks, c)
	a.mu.Unlock()
	return c
}

// close returns every chunk to the process-wide pool. No buffer the arena
// handed out may be in use any more.
func (a *arena) close() {
	for i := range a.classes {
		sc := &a.classes[i]
		sc.mu.Lock()
		sc.free, sc.rest = nil, nil
		sc.mu.Unlock()
	}
	a.mu.Lock()
	chunks := a.chunks
	a.chunks = nil
	a.mu.Unlock()
	chunkPool.mu.Lock()
	chunkPool.free = append(chunkPool.free, chunks...)
	chunkPool.mu.Unlock()
}

// chunkPool holds the chunks of closed arenas for the next arena to carve.
// Chunks are never unmapped: a process that builds and closes servers over
// and over (the benchmark builds a world several times a run) maps its
// peak once, and a stale slice into a pooled chunk reads old bytes rather
// than faulting.
var chunkPool struct {
	mu   sync.Mutex
	free [][]byte
}

// mappedBytes counts the chunk bytes newChunk has produced in this process.
var mappedBytes atomic.Int64

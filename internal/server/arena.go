package server

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"
)

// The arena keeps the server's stored value records out of the collected
// heap: a slab allocator in the manner of memcached's (Nishtala et al.,
// "Scaling Memcache at Facebook", NSDI 2013, §5.2), which likewise keeps an
// item's header in the slab beside its value. A record is one buffer: a
// valRec header holding the record's version and its value's length,
// followed by the value. The arena carves 1 MiB chunks into record classes,
// each the header plus a value capacity, the capacities four to a power of
// two (×1, ×1.25, ×1.5, ×1.75) from 64 B to 256 KiB, so records of 64 B,
// 1 KiB and 4 KiB values fit exactly (80, 1040 and 4112 B) and no record
// of a value of 64 B or more wastes over a quarter of its length. Chunks
// come from newChunk, which maps them outside the Go heap where it can, so
// a node's value memory is its resident records rounded up to a class, and
// the collector's goal covers only the keys and the store around them. A
// record of a larger value is a bigRec on the heap.
//
// A record is handed out by alloc, filled by the write that owns it,
// stored in the server's cache as a *valRec, and given back by free when
// the store releases it (concurrent.Cache.SetRelease). The store releases
// under the set lock, and every read of a stored record happens under the
// same lock (concurrent.Cache.View, Update, Entries), so a recycled record
// is never read through its old handle. free finds a record's class from
// its address alone — every chunk is chunkSize-aligned and holds its class
// in its first byte — so a release reads no line of the record it frees.
//
// A class's chunks stay with that class: when the value sizes shift, the
// old classes keep their memory. That is memcached's slab calcification;
// rebalancing is out of scope.
const (
	minClass   = 64        // the smallest value capacity
	maxClass   = 256 << 10 // the largest value capacity
	chunkSize  = 1 << 20
	chunkHead  = 64 // a chunk's class byte, alone on its cache line
	numClasses = 49 // 64 B, then 4 capacities per doubling up to 2^18
)

// valRec is the header of a stored value record; the value's n bytes
// follow it in the same buffer.
type valRec struct {
	ver uint64
	n   uint64
}

// hdrSize is the length of a record's header.
const hdrSize = int(unsafe.Sizeof(valRec{}))

// bigRec is a record of a value over maxClass: a valRec on the heap, which
// the collector frees. Its own type tells release to leave it alone.
type bigRec valRec

// value returns the record's value, in place.
func (r *valRec) value() []byte {
	return unsafe.Slice((*byte)(unsafe.Add(unsafe.Pointer(r), hdrSize)), r.n)
}

// stored returns r as the store holds it: a *bigRec if it is one.
func (r *valRec) stored() interface{} {
	if r.n > maxClass {
		return (*bigRec)(r)
	}
	return r
}

// classSizes[c] is the record length of class c.
var classSizes = func() (s [numClasses]int) {
	s[0] = hdrSize + minClass
	for c := 1; c < numClasses; c++ {
		e := 6 + (c-1)/4 // class c holds values in (2^e, 2^(e+1)]
		s[c] = hdrSize + 1<<e + ((c-1)%4+1)<<(e-2)
	}
	return s
}()

// classOf returns the smallest class whose records hold an n-byte value,
// 0 ≤ n ≤ maxClass.
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

// slabClass is one record class: its free records and the uncarved rest
// of its newest chunk.
type slabClass struct {
	mu   sync.Mutex
	free []*valRec // released records, reused last in first out
	rest []byte
}

// alloc returns a record for an n-byte value, at version 0, that the
// caller owns until the store holds it: an arena record up to maxClass, a
// heap one (stored as a *bigRec) above.
func (a *arena) alloc(n int) *valRec {
	var r *valRec
	if n > maxClass {
		r = (*valRec)(unsafe.Pointer(&make([]byte, hdrSize+n)[0]))
	} else {
		c := classOf(n)
		sc := &a.classes[c]
		sc.mu.Lock()
		if k := len(sc.free) - 1; k >= 0 {
			r = sc.free[k]
			sc.free[k] = nil
			sc.free = sc.free[:k]
		} else {
			size := classSizes[c]
			if len(sc.rest) < size {
				sc.rest = a.chunk(c)
			}
			r = (*valRec)(unsafe.Pointer(&sc.rest[0]))
			sc.rest = sc.rest[size:]
		}
		sc.mu.Unlock()
	}
	r.ver, r.n = 0, uint64(n)
	return r
}

// free gives back an arena record alloc returned. It reads only the class
// byte at the base of the record's chunk.
func (a *arena) free(r *valRec) {
	p := unsafe.Pointer(r)
	class := *(*byte)(unsafe.Add(p, -int(uintptr(p)&(chunkSize-1))))
	sc := &a.classes[class]
	sc.mu.Lock()
	sc.free = append(sc.free, r)
	sc.mu.Unlock()
}

// chunk returns a fresh chunk for class c to carve, past its head, drawn
// from the process-wide pool before a new one is mapped.
func (a *arena) chunk(c int) []byte {
	chunkPool.mu.Lock()
	var ch []byte
	if k := len(chunkPool.free) - 1; k >= 0 {
		ch = chunkPool.free[k]
		chunkPool.free[k] = nil
		chunkPool.free = chunkPool.free[:k]
	}
	chunkPool.mu.Unlock()
	if ch == nil {
		ch = newChunk()
		mappedBytes.Add(chunkSize)
	}
	ch[0] = byte(c)
	a.mu.Lock()
	a.chunks = append(a.chunks, ch)
	a.mu.Unlock()
	return ch[chunkHead:]
}

// alignChunk returns the chunkSize-aligned chunk inside m, which is
// 2·chunkSize long: free finds a chunk's base by rounding a record's
// address down. The rest of m is never touched.
func alignChunk(m []byte) []byte {
	off := -int(uintptr(unsafe.Pointer(&m[0]))) & (chunkSize - 1)
	return m[off : off+chunkSize : off+chunkSize]
}

// close returns every chunk to the process-wide pool. No record the arena
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
// peak once, and a stale handle into a pooled chunk reads old bytes rather
// than faulting.
var chunkPool struct {
	mu   sync.Mutex
	free [][]byte
}

// mappedBytes counts the chunk bytes newChunk has produced in this process.
var mappedBytes atomic.Int64

package server

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/concurrent"
	"repro/internal/wire"
)

// TestArena pins the slab arena: a record holding a 64 B, 1 KiB or 4 KiB
// value fits its class exactly, and no record of a value from 64 B to the
// largest class wastes over a quarter of its length; free finds each
// record's class from its address, so records of three classes freed
// together return one to each class; a freed record is the next one its
// class hands out; a value above the largest class is a heap record the
// arena neither maps for nor keeps; and chunks of closed arenas are carved
// again, so five open/fill/close cycles map no more than the first did.
func TestArena(t *testing.T) {
	for c := 1; c < numClasses; c++ {
		if classSizes[c] <= classSizes[c-1] {
			t.Fatalf("class %d is %d B, not above class %d's %d B", c, classSizes[c], c-1, classSizes[c-1])
		}
	}
	if classSizes[0] != hdrSize+minClass || classSizes[numClasses-1] != hdrSize+maxClass {
		t.Fatalf("classes span %d..%d B, want %d..%d", classSizes[0], classSizes[numClasses-1], hdrSize+minClass, hdrSize+maxClass)
	}
	for _, n := range []int{64, 1 << 10, 4 << 10} {
		if got := classSizes[classOf(n)]; got != hdrSize+n {
			t.Errorf("a record of a %d B value takes a %d B buffer, want an exact fit (%d B)", n, got, hdrSize+n)
		}
	}
	for n := 0; n <= maxClass; n++ {
		c := classOf(n)
		size, rec := classSizes[c], hdrSize+n
		if size < rec || c > 0 && classSizes[c-1] >= rec {
			t.Fatalf("classOf(%d) = %d (%d B), not the smallest class that holds its %d B record", n, c, size, rec)
		}
		if n >= minClass && 4*(size-rec) > rec {
			t.Fatalf("a %d B record takes a %d B buffer: %.1f%% waste, over 25%%", rec, size, 100*float64(size-rec)/float64(rec))
		}
	}

	var a arena
	var recs []*valRec
	for _, n := range []int{64, 1 << 10, 4 << 10} {
		r := a.alloc(n)
		if r.ver != 0 || len(r.value()) != n {
			t.Fatalf("alloc(%d): version %d, %d B value", n, r.ver, len(r.value()))
		}
		for i := range r.value() {
			r.value()[i] = byte(n)
		}
		recs = append(recs, r)
	}
	for _, r := range recs {
		a.free(r)
	}
	for c := range a.classes {
		want := 0
		if c == classOf(64) || c == classOf(1<<10) || c == classOf(4<<10) {
			want = 1
		}
		if n := len(a.classes[c].free); n != want {
			t.Errorf("class %d (%d B) holds %d free records, want %d", c, classSizes[c], n, want)
		}
	}
	if again := a.alloc(1000); again != recs[1] {
		t.Errorf("a freed record was not the next one its class handed out")
	}
	mapped := mappedBytes.Load()
	big := a.alloc(maxClass + 1)
	if _, ok := big.stored().(*bigRec); !ok || len(big.value()) != maxClass+1 || mappedBytes.Load() != mapped {
		t.Errorf("alloc(maxClass+1): stored as %T, %d B, mapped %d → %d B; want a heap record and no chunk", big.stored(), len(big.value()), mapped, mappedBytes.Load())
	}
	a.close()

	var after []int64
	for cycle := 0; cycle < 5; cycle++ {
		var a arena
		for i := 0; i < 3000; i++ {
			n := []int{64, 1 << 10, 4 << 10, 3000, 200 << 10}[i%5]
			if i%5 == 4 && i > 100 {
				continue // a few of the largest class: several chunks, not hundreds
			}
			v := a.alloc(n).value()
			v[0], v[n-1] = byte(cycle), byte(i)
		}
		if len(a.chunks) == 0 {
			t.Fatal("filled an arena without a chunk")
		}
		a.close()
		after = append(after, mappedBytes.Load())
	}
	for cycle, m := range after {
		if m != after[0] {
			t.Fatalf("mapped bytes after each open/fill/close cycle: %v; cycle %d mapped more than the first", after, cycle+1)
		}
	}
}

// stressPayload is a value that names itself: its key, a nonce unique to
// the write, and a fill byte and length both derived from the two, so a
// HIT carrying any other write's bytes — a buffer recycled under a reader
// — fails checkStress. Lengths run from 64 B to 8 KiB, across the arena's
// classes and the writer's zero-copy threshold.
func stressPayload(key, nonce uint64) []byte {
	v := make([]byte, stressLen(key, nonce))
	binary.LittleEndian.PutUint64(v, key)
	binary.LittleEndian.PutUint64(v[8:], nonce)
	fill := stressFill(key, nonce)
	for i := 16; i < len(v); i++ {
		v[i] = fill
	}
	return v
}

// stressSizes are the lengths a payload takes: few, so that a released
// buffer's class is soon asked for again, and spread over the arena's
// classes and both sides of the writer's zero-copy threshold.
var stressSizes = [...]int{64, 1000, 4 << 10, 5000, 8 << 10}

func stressLen(key, nonce uint64) int { return stressSizes[(key+nonce)%uint64(len(stressSizes))] }

func stressFill(key, nonce uint64) byte { return byte(key*31 + nonce*17) }

// checkStress reports why v is not a payload stressPayload wrote for key.
func checkStress(key uint64, v []byte) error {
	if len(v) < 16 {
		return fmt.Errorf("key %d: %d B value", key, len(v))
	}
	if got := binary.LittleEndian.Uint64(v); got != key {
		return fmt.Errorf("key %d: value names key %d", key, got)
	}
	nonce := binary.LittleEndian.Uint64(v[8:])
	if want := stressLen(key, nonce); len(v) != want {
		return fmt.Errorf("key %d nonce %d: %d B, want %d", key, nonce, len(v), want)
	}
	fill := stressFill(key, nonce)
	for j, b := range v[16:] {
		if b != fill {
			return fmt.Errorf("key %d nonce %d: byte %d is %#x, want %#x", key, nonce, 16+j, b, fill)
		}
	}
	return nil
}

// TestArenaReuseStress drives a tiny store (k = 64, α = 4, 512 keys, eight
// of them hot) from four connections, each sending pipelined batches of 1
// to 16 mixed SET, PUT, DEL and GET requests, so values are released and
// their buffers recycled all the time — within one batch too, between a
// HIT and the flush that sends it — and verifies every hit: a HIT must
// carry the bytes of a write of its own key, whole. The race detector
// cannot see mapped chunks (the race build carves heap chunks instead), so
// the payload check is the guard for the production build. After Close
// the store holds nothing.
func TestArenaReuseStress(t *testing.T) {
	srv, addr := startServer(t, concurrent.Config{Capacity: 64, Alpha: 4, Seed: 3})
	const conns, keys = 4, 512
	batches := 4000
	if raceEnabled {
		batches = 500
	}
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	hits := make([]int, conns)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if err := stressConn(addr, w, batches, keys, &hits[w]); err != nil {
				errs <- fmt.Errorf("conn %d: %w", w, err)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	total := 0
	for _, h := range hits {
		total += h
	}
	if total < conns*batches {
		t.Fatalf("%d hits in %d batches: too few to check the reuse", total, conns*batches)
	}
	srv.Close()
	if n := srv.Cache().Len(); n != 0 {
		t.Fatalf("Close left %d residents in the store", n)
	}
	if st := srv.stats(); st.Tombstones != 0 {
		t.Fatalf("TOMBSTONES = %d after Close emptied the store", st.Tombstones)
	}
}

// stressConn is one connection of TestArenaReuseStress: batches pipelined
// batches over keys, every HIT checked, the hits counted in hits.
func stressConn(addr string, w, batches, keys int, hits *int) error {
	c, err := wire.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	rng := rand.New(rand.NewSource(int64(w)))
	// Half the traffic goes to eight hot keys, so reads and the writes that
	// release their values meet.
	pick := func() uint64 {
		if rng.Intn(2) == 0 {
			return uint64(rng.Intn(8))
		}
		return uint64(rng.Intn(keys))
	}
	nonce := uint64(w) << 32
	var sent []wire.Request
	for i := 0; i < batches; i++ {
		sent = sent[:0]
		for n := 1 + rng.Intn(16); n > 0; n-- {
			req := wire.Request{Key: pick()}
			nonce++
			switch op := rng.Intn(100); {
			case op < 30:
				req.Op, req.Value = wire.OpSet, stressPayload(req.Key, nonce)
			case op < 40:
				req.Op, req.Version, req.Value = wire.OpPut, uint64(time.Now().UnixNano()), stressPayload(req.Key, nonce)
			case op < 45:
				req.Op = wire.OpDel
			default:
				req.Op = wire.OpGet
			}
			if err := c.Enqueue(req); err != nil {
				return err
			}
			sent = append(sent, req)
		}
		if err := c.Flush(); err != nil {
			return err
		}
		for _, req := range sent {
			resp, err := c.ReadResponse()
			if err != nil {
				return err
			}
			if resp.Status == wire.StatusHit {
				*hits++
				if err := checkStress(req.Key, resp.Value); err != nil {
					return fmt.Errorf("batch %d: %w", i, err)
				}
			}
		}
	}
	return nil
}

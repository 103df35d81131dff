package cluster

import (
	"bytes"
	"net"
	"sync/atomic"
	"testing"

	"repro/internal/load"
)

// readCountConn counts the Read calls on a member connection.
type readCountConn struct {
	net.Conn
	reads *atomic.Int64
}

func (c readCountConn) Read(p []byte) (int, error) {
	c.reads.Add(1)
	return c.Conn.Read(p)
}

// TestGetBatchReadsOncePerMember is the router's read budget: a 16-key
// R = 2 GetBatch of 4 KiB hits over 3 members is one round, and each
// member's part of it (a third of the HITs on average, 22 KB) arrives in
// one flush, so its lane should drain it with one Read. The budget allows
// a second Read per member for a flush that loopback splits; a 4 KiB
// stream buffer takes about one per HIT.
func TestGetBatchReadsOncePerMember(t *testing.T) {
	const valLen = 4 << 10
	addrs := startCluster(t, 3, 4096, 16)
	reads := make(map[string]*atomic.Int64, len(addrs))
	for _, a := range addrs {
		reads[a] = new(atomic.Int64)
	}
	d := countingDial{wrap: func(addr string, _ int, conn net.Conn) net.Conn {
		return readCountConn{conn, reads[addr]}
	}}
	c, err := Dial(addrs, Options{Replicas: 2, Dial: d.dial})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	keys := make([]uint64, 16)
	for i := range keys {
		keys[i] = uint64(i + 1)
	}
	payload := func(i int) []byte { return load.Payload(keys[i], valLen) }
	if err := c.SetBatch(keys, payload); err != nil {
		t.Fatal(err)
	}

	for _, n := range reads {
		n.Store(0)
	}
	err = c.GetBatch(keys, func(i int, hit bool, value []byte) {
		if !hit || !bytes.Equal(value, payload(i)) {
			t.Errorf("key %d: hit=%v, %d-byte value, want its own %d bytes", keys[i], hit, len(value), valLen)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, a := range addrs {
		total += reads[a].Load()
	}
	if limit := int64(2 * len(addrs)); total > limit {
		for _, a := range addrs {
			t.Logf("%s: %d Reads", a, reads[a].Load())
		}
		t.Errorf("GetBatch(16 keys of %d B, R=2, %d members) took %d Reads, want ≤ %d", valLen, len(addrs), total, limit)
	}
}

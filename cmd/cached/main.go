// Command cached is the sharded cache daemon: a concurrent α-way
// set-associative cache (internal/concurrent) served over TCP with the wire
// protocol (internal/wire).
//
// Usage:
//
//	cached -addr :7070 -k 65536 -alpha 16
//	cached -addr :7070 -k 65536 -alpha 16 -rehash-auto
//	cached -addr :7071 -advertise host2:7071 -join host1:7070
//	cached -addr :7070 -debug-addr localhost:6060
//
// With -join SEED the daemon makes itself a cluster member on startup: it
// fetches the seed's topology, adds its own advertised address under a
// bumped epoch, and pushes the result to every member — so a cluster
// grows one "-join first-node" at a time and any single member address
// lets a client bootstrap the whole view (cluster.Options.Bootstrap,
// cachecluster -bootstrap). -advertise is the address peers and clients
// reach this node at; it defaults to -addr, which only works when that is
// dialable as-is (e.g. loopback testing). Without -join the daemon seeds
// its own topology with just itself, making it usable as the first seed.
//
// With -rehash-auto the daemon applies the paper's Section 6 schedule:
// every k·⌈log₂ k⌉ misses (the paper's poly(k) guidance; see
// concurrent.DefaultEveryMisses) it draws a fresh indexing hash and
// migrates incrementally under live traffic. The schedule is the only
// trigger: no request starts a rehash (wire v16 has no REHASH).
// METRICS exposes the hit/miss/conflict counters and, on request, each
// bucket's occupancy.
//
// With -debug-addr the daemon additionally serves an operator side-channel
// on that address (keep it on localhost or a management network): net/http
// pprof under /debug/pprof/ and a JSON rendering of the flight recorder —
// per-op latency percentiles, byte/connection counters, the slow-op ring —
// at /metrics. It is off by default and separate from the cache port; the
// wire-level equivalent is the METRICS opcode. -slow-op-threshold tunes
// which ops enter the slow-op ring (default 10ms, 0 disables).
//
// The set hash's seed is secret unless -seed names one: -seed 0, the
// default, draws it from crypto/rand and logs only that it is random. The
// paper's bounds hold against an adversary that cannot see the hash; a
// client that knows it can make every GET of a small working set miss.
package main

import (
	"crypto/rand"
	"encoding/binary"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/cluster"
	"repro/internal/concurrent"
	"repro/internal/server"
	"repro/internal/wire"
)

func main() {
	var (
		addr       = flag.String("addr", ":7070", "listen address")
		advertise  = flag.String("advertise", "", "address peers and clients reach this node at (default: -addr)")
		join       = flag.String("join", "", "seed address of an existing member: fetch its topology, add self, push to all members")
		k          = flag.Int("k", 1<<16, "total cache capacity")
		alpha      = flag.Int("alpha", 16, "set size α (must divide k); the paper proves α = ω(log k) matches full associativity and α = o(log k) does not, and the default sits at the threshold, log₂ 65536 = 16")
		seed       = flag.Uint64("seed", 0, "hash seed; 0 draws a secret one from crypto/rand")
		rehashAuto = flag.Bool("rehash-auto", false, "start an online incremental rehash every k·⌈log₂k⌉ misses (the paper's poly(k) schedule)")
		debugAddr  = flag.String("debug-addr", "", "serve net/http/pprof and a /metrics JSON snapshot on this address (off when empty)")
		slowThresh = flag.Duration("slow-op-threshold", server.DefaultSlowOpThreshold, "ops at least this slow enter the slow-op ring (0 disables the ring)")
		leaseTTL   = flag.Duration("lease-ttl", server.DefaultLeaseTTL, "how long a GETL fill lease stays outstanding (wire v7); keep just above the slowest origin load")
		hintBudget = flag.Int("hint-budget", server.DefaultHintBudget, "byte budget for queued hinted-handoff records (wire v8); oldest dropped when over")
		hintReplay = flag.Duration("hint-replay", server.DefaultHintReplay, "how often queued hints are replayed to their recovered target (wire v8)")
	)
	flag.Parse()

	var every uint64
	if *rehashAuto {
		every = concurrent.DefaultEveryMisses(*k)
		log.Printf("cached: auto rehash schedule: every %d misses", every)
	}
	if *seed == 0 {
		log.Printf("cached: hash seed: random")
	}
	cache, err := concurrent.New(concurrent.Config{
		Capacity:          *k,
		Alpha:             *alpha,
		Seed:              hashSeed(*seed),
		RehashEveryMisses: every,
	})
	if err != nil {
		fatal(err)
	}

	srv := server.New(cache)
	srv.SetSlowOpThreshold(*slowThresh)
	srv.SetLeaseTTL(*leaseTTL)
	if *hintBudget < 0 {
		fatal(fmt.Errorf("-hint-budget %d: byte budget must not be negative", *hintBudget))
	}
	srv.SetHintBudget(*hintBudget)
	srv.SetHintReplayInterval(*hintReplay)
	if *debugAddr != "" {
		serveDebug(*debugAddr, srv)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		log.Printf("cached: shutting down")
		srv.Close()
	}()

	// The listener must be up before -join pushes a topology that includes
	// this node, so Serve runs on a goroutine and the join happens after.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	self := *advertise
	if self == "" {
		self = *addr
	}
	if *join == "" {
		// A standalone node is its own one-member topology, which is what
		// makes it usable as the first seed of a growing cluster. Offered
		// before the listener starts accepting, to a server that holds no
		// view, so it is adopted, and a peer joining the instant we come up
		// can never have its founding push stomped by this self-seed.
		srv.OfferTopology(wire.Topology{Members: []string{self}})
	}
	log.Printf("cached: serving k=%d α=%d (%d buckets) on %s",
		*k, *alpha, cache.NumBuckets(), *addr)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	if *join != "" {
		t, skipped, err := cluster.Join(*join, self, nil)
		if err != nil {
			srv.Close()
			<-serveErr
			fatal(err)
		}
		log.Printf("cached: joined cluster via %s: epoch %d, members %s",
			*join, t.Epoch, strings.Join(t.Members, " "))
		if len(skipped) > 0 {
			// A dead member must not abort the join; it learns the new
			// topology later, from a router's refresh-and-re-push or its
			// own restart.
			log.Printf("cached: join could not push the topology to %s; they will converge on their own",
				strings.Join(skipped, " "))
		}
	}

	if err := <-serveErr; err != nil {
		fatal(err)
	}
	snap := cache.Snapshot()
	log.Printf("cached: final stats: hits=%d misses=%d (ratio %.4f) evictions=%d conflict=%d rehashes=%d",
		snap.Hits, snap.Misses, snap.MissRatio(), snap.Evictions, snap.ConflictEvictions, snap.Rehashes)
}

// hashSeed returns seed, or for 0 one drawn from crypto/rand. Every
// later rehash seed derives from it, so they stay secret too.
func hashSeed(seed uint64) uint64 {
	if seed != 0 {
		return seed
	}
	var b [8]byte
	rand.Read(b[:]) // never fails since Go 1.24
	return binary.LittleEndian.Uint64(b[:])
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "cached: %v\n", err)
	os.Exit(1)
}

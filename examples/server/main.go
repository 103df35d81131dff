// The server example is the end-to-end walkthrough of the paper's
// α-tradeoff on a real service boundary: it boots one cached server per α
// on loopback TCP, drives each with the same zipf and adversarial workloads
// through the closed-loop load harness, and tabulates throughput, tail
// latency and miss behaviour side by side.
//
// The two columns tell the two halves of the story:
//
//   - qps / p99: smaller α means more buckets, so concurrent connections
//     collide on bucket locks less often (the "smaller α, bigger benefits"
//     direction);
//   - miss ratio / conflict evictions: once α falls below the ~log₂ k
//     threshold, buckets overflow under skew and the adversarial cycler,
//     and the cheap cache stops being (1+o(1))-competitive.
//
// It finishes by demonstrating an online rehash under live traffic: the
// migration drains without stopping the server. The demo starts the rehash
// on the cache it built, since no request can start one; a cached daemon
// rehashes on its own miss-count schedule (-rehash-auto).
//
// Run with: go run ./examples/server
package main

import (
	"fmt"
	"log"
	"net"
	"time"

	"repro/internal/adversary"
	"repro/internal/concurrent"
	"repro/internal/load"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/wire"
	"repro/internal/workload"
)

const (
	k     = 1 << 12
	ops   = 120_000
	conns = 4
)

func main() {
	zipf := workload.Zipf{Universe: 2 * k, S: 0.9, Shuffle: true}.Generate(ops, 7)
	adv := adversary.Theorem4{K: k, Delta: 0.1, Sets: 3, Reps: 4}
	advSeq := workload.Fixed{Label: "theorem4", Seq: adv.Build()}.Generate(ops, 7)

	fmt.Printf("cached α-sweep: k=%d, %d ops, %d conns, zipf(s=0.9) and Theorem-4 adversary\n\n", k, ops, conns)
	fmt.Printf("%8s %8s | %10s %8s %9s %11s | %10s %8s %9s %11s\n",
		"alpha", "buckets",
		"zipf qps", "p99", "miss", "conflict/op",
		"adv qps", "p99", "miss", "conflict/op")
	for _, alpha := range []int{1, 4, 16, 64, 512, k} {
		zr, zc := runOne(alpha, zipf)
		ar, ac := runOne(alpha, advSeq)
		fmt.Printf("%8d %8d | %10.0f %8v %9.4f %11.4f | %10.0f %8v %9.4f %11.4f\n",
			alpha, k/alpha,
			zr.Throughput, zr.Latency.P99.Round(time.Microsecond), zr.MissRatio(),
			float64(zc.ConflictEvictions)/float64(zr.Ops),
			ar.Throughput, ar.Latency.P99.Round(time.Microsecond), ar.MissRatio(),
			float64(ac.ConflictEvictions)/float64(ar.Ops))
	}

	fmt.Println("\nonline rehash under live traffic (α=16):")
	demoOnlineRehash()
}

// runOne serves one α configuration and drives it with keys.
func runOne(alpha int, keys trace.Sequence) (load.Result, concurrent.Snapshot) {
	cache, err := concurrent.New(concurrent.Config{Capacity: k, Alpha: alpha, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	srv := server.New(cache)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	res, err := load.Run(load.Config{
		Addr:        ln.Addr().String(),
		Conns:       conns,
		Keys:        keys,
		Pipeline:    16,
		ValueSize:   64,
		ReadThrough: true,
		Verify:      true,
	})
	if err != nil {
		log.Fatal(err)
	}
	if res.Corrupt > 0 {
		log.Fatalf("α=%d: %d corrupt payloads", alpha, res.Corrupt)
	}
	return res, cache.Snapshot()
}

func demoOnlineRehash() {
	cache, err := concurrent.New(concurrent.Config{Capacity: k, Alpha: 16, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	srv := server.New(cache)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	addr := ln.Addr().String()

	keys := workload.Zipf{Universe: k, S: 0.8, Shuffle: true}.Generate(200_000, 3)
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := load.Run(load.Config{
			Addr: addr, Conns: conns, Keys: keys, Pipeline: 16,
			ValueSize: 64, ReadThrough: true,
		}); err != nil {
			log.Fatal(err)
		}
	}()

	time.Sleep(20 * time.Millisecond)
	ctl, err := wire.Dial(addr)
	if err != nil {
		log.Fatal(err)
	}
	defer ctl.Close()
	m, err := ctl.Metrics(wire.MetricsCounters)
	if err != nil {
		log.Fatal(err)
	}
	pre := m.Stats()
	cache.Rehash()
	start := time.Now()
	for {
		m, err := ctl.Metrics(wire.MetricsCounters)
		if err != nil {
			log.Fatal(err)
		}
		if st := m.Stats(); !st.Migrating {
			fmt.Printf("  rehash of %d resident entries completed in %v under live traffic\n",
				pre.Len, time.Since(start).Round(time.Millisecond))
			fmt.Printf("  flush evictions: %d, server kept serving: Δgets=%d\n",
				st.FlushEvictions, (st.Hits+st.Misses)-(pre.Hits+pre.Misses))
			break
		}
		time.Sleep(time.Millisecond)
	}
	<-done
}

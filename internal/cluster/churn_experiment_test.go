package cluster

import (
	"net"
	"testing"
	"time"

	"repro/internal/concurrent"
	"repro/internal/server"
	"repro/internal/wire"
)

// TestChurnSelfHealExperiment is the measurement harness behind
// hypotheses/H4-churn-self-heal.md: one churn cycle — a member drops out,
// the cluster keeps deleting and updating, the member rejoins *with its
// pre-partition data* — run three times with the healing mechanisms
// ablated:
//
//	neither    hints discarded (budget 0), no sweep: the rejoined member
//	           keeps serving deleted keys and stale values indefinitely
//	hints-only hint replay heals everything its queue survived to deliver
//	full       a deliberately starved hint budget drops most hints and the
//	           anti-entropy sweep still converges the cluster
//
// The assertions are H4's acceptance criteria; the t.Logf table is the
// data the hypothesis doc quotes (visible under -v).
func TestChurnSelfHealExperiment(t *testing.T) {
	const (
		total    = 300 // keys 1..100 deleted, 101..200 updated, 201..300 untouched
		doomed   = 100
		updated  = 200
		replayMs = 20
	)

	type mode struct {
		name       string
		hintBudget int  // -1 = default (everything fits), 0 = drop all
		sweep      bool // run AntiEntropySweep after rejoin
	}
	modes := []mode{
		{name: "neither", hintBudget: 0, sweep: false},
		{name: "hints-only", hintBudget: -1, sweep: false},
		{name: "full", hintBudget: 900, sweep: true}, // ~12 of ~130 victim hints fit
	}

	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			// Three nodes whose caches outlive their servers, so the victim
			// can rejoin holding exactly what it held when it dropped out —
			// a partition, not a disk loss.
			caches := make([]*concurrent.Cache, 3)
			srvs := make([]*server.Server, 3)
			addrs := make([]string, 3)
			boot := func(i int, addr string) {
				srv := server.New(caches[i])
				srv.SetHintReplayInterval(replayMs * time.Millisecond)
				if m.hintBudget >= 0 {
					srv.SetHintBudget(m.hintBudget)
				}
				ln, err := net.Listen("tcp", addr)
				if err != nil {
					t.Fatal(err)
				}
				go srv.Serve(ln)
				t.Cleanup(func() { srv.Close() })
				srvs[i], addrs[i] = srv, ln.Addr().String()
			}
			for i := range caches {
				cache, err := concurrent.New(concurrent.Config{Capacity: 4096, Alpha: 16, Seed: uint64(i + 1)})
				if err != nil {
					t.Fatal(err)
				}
				caches[i] = cache
				boot(i, "127.0.0.1:0")
			}

			c, err := Dial(addrs, Options{Replicas: 2, WriteQuorum: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			for k := uint64(1); k <= total; k++ {
				if err := c.Set(k, []byte("v1")); err != nil {
					t.Fatal(err)
				}
			}

			// Partition: node 1 drops; deletes and updates proceed at W=1.
			victim := addrs[1]
			srvs[1].Close()
			for k := uint64(1); k <= doomed; k++ {
				if _, err := c.Del(k); err != nil {
					t.Fatal(err)
				}
			}
			for k := uint64(doomed + 1); k <= updated; k++ {
				if err := c.Set(k, []byte("v2")); err != nil {
					t.Fatal(err)
				}
			}
			victimOwned := 0
			c.mu.RLock()
			for k := uint64(1); k <= updated; k++ {
				for _, o := range c.ring.OwnersFor(k, 2) {
					if o == victim {
						victimOwned++
					}
				}
			}
			c.mu.RUnlock()
			// Every victim-owned write either parks a hint or fails to; wait
			// for the handoff tally so the background repair path has decided.
			deadline := time.Now().Add(10 * time.Second)
			for {
				h := c.Snapshot().Replication
				if int(h.HintsSent+h.HintsFailed) >= victimOwned {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("handoff decided %d of %d victim-owned writes", h.HintsSent+h.HintsFailed, victimOwned)
				}
				time.Sleep(2 * time.Millisecond)
			}

			// Rejoin with the pre-partition cache: live v1 copies of every
			// deleted and updated key the victim owns.
			rejoin := time.Now()
			boot(1, victim)

			// divergence counts the victim's wrong records: a deleted key it
			// still holds live, or an updated key it still holds at v1.
			divergence := func() int {
				vc, err := wire.Dial(victim)
				if err != nil {
					return -1 // victim mid-restart; count as diverged
				}
				defer vc.Close()
				n := 0
				for k := uint64(1); k <= doomed; k++ {
					if _, hit, err := vc.Get(k); err == nil && hit {
						n++
					}
				}
				for k := uint64(doomed + 1); k <= updated; k++ {
					if v, hit, err := vc.Get(k); err == nil && hit && string(v) == "v1" {
						n++
					}
				}
				return n
			}
			// resurrected counts deleted keys the *router* still serves — the
			// user-visible failure, reachable whenever the victim answers for
			// a key before its healthier replica.
			resurrected := func() int {
				n := 0
				for k := uint64(1); k <= doomed; k++ {
					if _, hit, err := c.Get(k); err == nil && hit {
						n++
					}
				}
				return n
			}

			d0, r0 := divergence(), resurrected()
			switch m.name {
			case "neither":
				// No mechanism: the divergence is permanent. Confirm it is
				// still there after several would-be replay intervals.
				time.Sleep(10 * replayMs * time.Millisecond)
				d1, r1 := divergence(), resurrected()
				if d1 == 0 || r1 == 0 {
					t.Fatalf("ablated cluster healed itself: divergence %d→%d, resurrected %d→%d",
						d0, d1, r0, r1)
				}
				t.Logf("neither: divergence %d records, resurrected deletes served %d — unchanged after %dms",
					d1, r1, 10*replayMs)
			case "hints-only":
				// Hint replay alone must converge, and quickly.
				var healed time.Duration
				for {
					if divergence() == 0 {
						healed = time.Since(rejoin)
						break
					}
					if time.Now().After(deadline) {
						t.Fatalf("hints did not heal the victim; divergence still %d", divergence())
					}
					time.Sleep(2 * time.Millisecond)
				}
				if n := resurrected(); n != 0 {
					t.Fatalf("resurrected deletes after hint replay: %d", n)
				}
				t.Logf("hints-only: initial divergence %d, healed in %v, resurrected deletes 0", d0, healed)
			case "full":
				// Most hints were dropped by the starved budget, so replay
				// alone cannot finish; the sweep must. One sweep = the
				// divergence bound.
				time.Sleep(3 * replayMs * time.Millisecond) // let surviving hints land first
				dHints := divergence()
				rep, err := c.AntiEntropySweep()
				if err != nil {
					t.Fatal(err)
				}
				if d, r := divergence(), resurrected(); d != 0 || r != 0 {
					t.Fatalf("after sweep: divergence %d, resurrected %d; want 0/0", d, r)
				}
				t.Logf("full: initial divergence %d, after starved hint replay %d, sweep repaired %d records → divergence 0, resurrected deletes 0",
					d0, dHints, rep)
				if dHints == 0 {
					t.Logf("full: note — starved budget still let every victim hint through; raise key count or shrink budget for a sharper ablation")
				}
			}
		})
	}
}

package overlay

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"hypercube/internal/core"
	"hypercube/internal/id"
	"hypercube/internal/liveness"
	"hypercube/internal/sampling"
	"hypercube/internal/table"
)

// TestPersistRestartRejoin is the end-to-end restart story persist
// exists for, on the path the nemesis executor's restart op takes
// (Persist, Restart): a member dumps its table to disk, crashes,
// restarts from the snapshot as an established node, and re-announces
// itself with a rejoin. The survivors never repaired the crash (the
// restart is immediate), so their tables still point at the victim;
// after the re-announce drains, the whole network must pass netcheck. A
// dump damaged on disk must demote the restart to a fresh join instead
// of failing it. With sampling on, the dump carries the victim's sampled
// peers and the rejoin bootstraps through the first of them — the
// sampling layer's rejoin-bootstrap role.
func TestPersistRestartRejoin(t *testing.T) {
	for _, c := range []struct{ corrupt, sampled bool }{{false, false}, {true, false}, {false, true}} {
		p := id.Params{B: 4, D: 4}
		rng := rand.New(rand.NewSource(11))
		cfg := Config{Params: p}
		if c.sampled {
			cfg.Sampling = &sampling.Config{Seed: 11}
		}
		net := New(cfg)
		refs := RandomRefs(p, 16, rng, nil)
		net.BuildDirect(refs, rng)
		if c.sampled {
			net.RunFor(5 * time.Second) // views fill before the dump
		}
		requireConsistent(t, net)

		victim := refs[3]
		tbl, _ := net.TableOf(victim.ID)
		filled := tbl.FilledCount()
		path := filepath.Join(t.TempDir(), "victim.json")
		if err := net.Persist(victim.ID, path); err != nil {
			t.Fatal(err)
		}
		if c.corrupt {
			if err := os.Truncate(path, 40); err != nil {
				t.Fatal(err)
			}
		}
		if err := net.InjectFailure(victim.ID); err != nil {
			t.Fatal(err)
		}
		if _, _, err := net.Restart(victim, path, func([]table.Ref) table.Ref { return victim }); err == nil {
			t.Fatal("Restart accepted the restarting node as its own helper")
		}

		helper := func([]table.Ref) table.Ref { return refs[0] }
		if c.sampled {
			helper = func(sampled []table.Ref) table.Ref {
				if len(sampled) == 0 {
					t.Fatal("the dump persisted no sampled peers")
				}
				return sampled[0]
			}
		}
		m, restored, err := net.Restart(victim, path, helper)
		if err != nil {
			t.Fatal(err)
		}
		if restored == c.corrupt {
			t.Fatalf("%+v: Restart reports restored=%v", c, restored)
		}
		if restored {
			if got, _ := net.TableOf(victim.ID); got.FilledCount() != filled {
				t.Fatalf("restored table has %d entries, want %d", got.FilledCount(), filled)
			}
		} else {
			net.Run() // the fresh join is the caller's to drain
		}
		if !m.IsSNode() {
			t.Fatalf("%+v: restarted node stuck in %v", c, m.Status())
		}
		requireConsistent(t, net)
	}
}

// TestRestartWave is the concurrent-outage shape of a rolling restart:
// a wave of members persists and crashes at one instant, then each
// rejoins through a live persisted sampled peer while the rest of its
// wave is still down. The restarts take no virtual time, so any
// declaration afterwards names a live node, and every member must end
// an S-node in a consistent network.
func TestRestartWave(t *testing.T) {
	p := id.Params{B: 4, D: 4}
	rng := rand.New(rand.NewSource(13))
	net := New(Config{
		Params:  p,
		Latency: ConstantLatency(10 * time.Millisecond),
		Opts: core.Options{Timeouts: core.Timeouts{
			RetryAfter:  500 * time.Millisecond,
			MaxAttempts: 6,
			RepairAfter: 600 * time.Millisecond,
		}},
		Liveness: &liveness.Config{
			ProbeInterval:  100 * time.Millisecond,
			ProbeTimeout:   400 * time.Millisecond,
			SuspectAfter:   3,
			IndirectProbes: 2,
			ConfirmRounds:  3,
		},
		Sampling:     &sampling.Config{Seed: 13},
		TickInterval: 50 * time.Millisecond,
	})
	refs := RandomRefs(p, 32, rng, nil)
	net.BuildDirect(refs, rng)
	net.RunFor(5 * time.Second) // views fill before the dumps

	dir := t.TempDir()
	dump := func(r table.Ref) string { return filepath.Join(dir, r.ID.String()+".json") }
	wave := refs[:8]
	for _, r := range wave {
		if err := net.Persist(r.ID, dump(r)); err != nil {
			t.Fatal(err)
		}
		if err := net.InjectFailure(r.ID); err != nil {
			t.Fatal(err)
		}
	}
	var ms []*core.Machine
	for _, r := range wave {
		m, restored, err := net.Restart(r, dump(r), func(sampled []table.Ref) table.Ref {
			for _, s := range sampled {
				if _, live := net.Machine(s.ID); live {
					return s
				}
			}
			t.Fatalf("%v persisted no live sampled peer among %v", r.ID, sampled)
			return table.Ref{}
		})
		if err != nil {
			t.Fatal(err)
		}
		if !restored {
			t.Fatalf("%v: intact dump not restored", r.ID)
		}
		ms = append(ms, m)
	}
	// A rejoin that reached a wave member still down waits for its
	// retries, which run only with the clock.
	net.RunFor(5 * time.Second)
	if st := net.LivenessStats(); st.Declared != 0 {
		t.Fatalf("%d declarations after a restart that took no virtual time", st.Declared)
	}
	for i, m := range ms {
		if !m.IsSNode() {
			t.Fatalf("%v stuck in %v", wave[i].ID, m.Status())
		}
	}
	requireConsistent(t, net)
}

// TestSettle pins the contract its four former copies shared: zero
// rounds on a consistent network, and a spent budget reported as such.
func TestSettle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	net := New(Config{Params: p164})
	refs := RandomRefs(p164, 20, rng, nil)
	net.BuildDirect(refs, rng)
	if rounds, ok := net.Settle(time.Second, 10); rounds != 0 || !ok {
		t.Fatalf("consistent network: Settle = %d, %v; want 0, true", rounds, ok)
	}
	// A crash nobody repairs (no detector is configured) never settles.
	if err := net.InjectFailure(refs[0].ID); err != nil {
		t.Fatal(err)
	}
	if rounds, ok := net.Settle(time.Second, 3); rounds != 3 || ok {
		t.Fatalf("unrepaired crash: Settle = %d, %v; want 3, false", rounds, ok)
	}
}

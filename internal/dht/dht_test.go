package dht_test

import (
	"fmt"
	"math/rand"
	"testing"

	"hypercube/internal/dht"
	"hypercube/internal/id"
	"hypercube/internal/overlay"
	"hypercube/internal/table"
)

var p164 = id.Params{B: 16, D: 4}

func buildNetwork(t *testing.T, n int, seed int64) (*overlay.Network, []table.Ref) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	net := overlay.New(overlay.Config{Params: p164})
	refs := overlay.RandomRefs(p164, n, rng, nil)
	net.BuildDirect(refs, rng)
	return net, refs
}

func TestDirectory(t *testing.T) {
	d := dht.NewDirectory()
	obj := id.MustParse(p164, "ab12")
	h1 := table.Ref{ID: id.MustParse(p164, "0001"), Addr: "a"}
	h2 := table.Ref{ID: id.MustParse(p164, "0002"), Addr: "b"}
	d.Add(obj, h1)
	d.Add(obj, h1) // dedup
	d.Add(obj, h2)
	if got := d.Lookup(obj); len(got) != 2 || got[0].ID != h1.ID {
		t.Fatalf("Lookup = %v", got)
	}
	if d.Len() != 1 {
		t.Errorf("Len = %d", d.Len())
	}
}

func TestPublishLookup(t *testing.T) {
	net, refs := buildNetwork(t, 100, 1)
	store := dht.NewStore(p164, net)
	obj := store.ObjectID("paper.pdf")
	holder := refs[7]
	path, err := store.Publish(obj, holder)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) == 0 || path[0] != holder.ID {
		t.Fatalf("publish path %v", path)
	}
	// P1 deterministic location: every node finds the object.
	for _, ref := range refs {
		got, hops, err := store.Lookup(ref.ID, obj)
		if err != nil {
			t.Fatalf("lookup from %v: %v", ref.ID, err)
		}
		if got.ID != holder.ID {
			t.Fatalf("lookup returned %v, want %v", got.ID, holder.ID)
		}
		if hops > p164.D {
			t.Fatalf("lookup took %d hops", hops)
		}
	}
}

func TestLookupMissingObject(t *testing.T) {
	net, refs := buildNetwork(t, 50, 2)
	store := dht.NewStore(p164, net)
	obj := store.ObjectID("never-published")
	if _, _, err := store.Lookup(refs[0].ID, obj); err == nil {
		t.Fatal("lookup of unpublished object succeeded")
	}
}

func TestRootAgreement(t *testing.T) {
	// P1: all nodes compute the same root for an object.
	net, refs := buildNetwork(t, 80, 4)
	store := dht.NewStore(p164, net)
	for i := 0; i < 10; i++ {
		obj := store.ObjectID(fmt.Sprintf("obj-%d", i))
		want, err := store.Root(refs[0].ID, obj)
		if err != nil {
			t.Fatal(err)
		}
		for _, ref := range refs[1:] {
			got, err := store.Root(ref.ID, obj)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("object %v: root %v from %v, %v from %v", obj, want, refs[0].ID, got, ref.ID)
			}
		}
	}
}

func TestNearbyCopyWinsP2(t *testing.T) {
	// P2 routing locality: a replica published by the querying node
	// itself is found in 0 hops even when a far replica exists.
	net, refs := buildNetwork(t, 100, 5)
	store := dht.NewStore(p164, net)
	obj := store.ObjectID("popular")
	far := refs[20]
	near := refs[40]
	if _, err := store.Publish(obj, far); err != nil {
		t.Fatal(err)
	}
	gotFar, hopsFar, err := store.Lookup(near.ID, obj)
	if err != nil {
		t.Fatal(err)
	}
	if gotFar.ID != far.ID {
		t.Fatalf("pre-replication lookup found %v", gotFar.ID)
	}
	if _, err := store.Publish(obj, near); err != nil {
		t.Fatal(err)
	}
	gotNear, hopsNear, err := store.Lookup(near.ID, obj)
	if err != nil {
		t.Fatal(err)
	}
	if gotNear.ID != near.ID || hopsNear != 0 {
		t.Fatalf("local replica not preferred: %v in %d hops", gotNear.ID, hopsNear)
	}
	if hopsNear > hopsFar {
		t.Fatalf("nearer copy cost more hops: %d > %d", hopsNear, hopsFar)
	}
}

func TestLookupAfterJoinWave(t *testing.T) {
	// Objects published before a concurrent join wave remain locatable
	// from the new nodes afterward: the join preserved reachability.
	rng := rand.New(rand.NewSource(6))
	net := overlay.New(overlay.Config{Params: p164})
	taken := make(map[id.ID]bool)
	vRefs := overlay.RandomRefs(p164, 80, rng, taken)
	net.BuildDirect(vRefs, rng)
	store := dht.NewStore(p164, net)
	objs := make([]id.ID, 15)
	for i := range objs {
		objs[i] = store.ObjectID(fmt.Sprintf("file-%d", i))
		if _, err := store.Publish(objs[i], vRefs[rng.Intn(len(vRefs))]); err != nil {
			t.Fatal(err)
		}
	}
	wRefs := overlay.RandomRefs(p164, 40, rng, taken)
	for _, w := range wRefs {
		net.ScheduleJoin(w, vRefs[rng.Intn(len(vRefs))], 0)
	}
	net.Run()
	if v := net.CheckConsistency(); len(v) != 0 {
		t.Fatalf("wave inconsistent: %v", v[0])
	}
	// Joins can move object roots onto new nodes, so some lookups may
	// miss until directories are repaired (the PRR/Tapestry republish-on-
	// membership-change mechanism).
	if err := store.Republish(); err != nil {
		t.Fatal(err)
	}
	for _, w := range wRefs {
		for _, obj := range objs {
			if _, _, err := store.Lookup(w.ID, obj); err != nil {
				t.Fatalf("new node %v cannot find %v after republish: %v", w.ID, obj, err)
			}
		}
	}
}

func TestRepublishRepairsMovedRoots(t *testing.T) {
	// Directly exhibit the migration problem Republish exists for: find a
	// seed where a post-wave lookup fails pre-repair, then verify repair.
	rng := rand.New(rand.NewSource(8))
	p := id.Params{B: 4, D: 4} // small space: root moves are frequent
	net := overlay.New(overlay.Config{Params: p})
	taken := make(map[id.ID]bool)
	vRefs := overlay.RandomRefs(p, 20, rng, taken)
	net.BuildDirect(vRefs, rng)
	store := dht.NewStore(p, net)
	objs := make([]id.ID, 40)
	for i := range objs {
		objs[i] = store.ObjectID(fmt.Sprintf("m-%d", i))
		if _, err := store.Publish(objs[i], vRefs[rng.Intn(len(vRefs))]); err != nil {
			t.Fatal(err)
		}
	}
	wRefs := overlay.RandomRefs(p, 60, rng, taken)
	for _, w := range wRefs {
		net.ScheduleJoin(w, vRefs[rng.Intn(len(vRefs))], 0)
	}
	net.Run()
	missesBefore := 0
	for _, w := range wRefs {
		for _, obj := range objs {
			if _, _, err := store.Lookup(w.ID, obj); err != nil {
				missesBefore++
			}
		}
	}
	if missesBefore == 0 {
		t.Log("no root moved in this configuration; repair path not exercised")
	}
	if err := store.Republish(); err != nil {
		t.Fatal(err)
	}
	for _, w := range wRefs {
		for _, obj := range objs {
			if _, _, err := store.Lookup(w.ID, obj); err != nil {
				t.Fatalf("miss after republish: %v from %v", obj, w.ID)
			}
		}
	}
}

func TestDirectoryLoad(t *testing.T) {
	net, refs := buildNetwork(t, 60, 7)
	store := dht.NewStore(p164, net)
	for i := 0; i < 200; i++ {
		obj := store.ObjectID(fmt.Sprintf("load-%d", i))
		if _, err := store.Publish(obj, refs[i%len(refs)]); err != nil {
			t.Fatal(err)
		}
	}
	load := store.DirectoryLoad()
	if len(load) == 0 {
		t.Fatal("no directory load recorded")
	}
	total := 0
	for i, v := range load {
		if i > 0 && v > load[i-1] {
			t.Fatal("load not sorted descending")
		}
		total += v
	}
	if total < 200 {
		t.Errorf("total pointers %d < published 200", total)
	}
}

package overlay

import (
	"math/rand"
	"testing"

	"hypercube/internal/core"
	"hypercube/internal/id"
	"hypercube/internal/table"
)

func TestChurnDebugSeed3(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net := New(Config{Params: p164})
	taken := make(map[id.ID]bool)
	refs := RandomRefs(p164, 60, rng, taken)
	net.BuildDirect(refs, rng)
	var live []table.Ref
	live = append(live, refs...)
	pickLive := func() table.Ref { return live[rng.Intn(len(live))] }
	removeLive := func(i int) table.Ref {
		r := live[i]
		live = append(live[:i], live[i+1:]...)
		return r
	}
	for phase := 0; phase < 8; phase++ {
		switch phase % 3 {
		case 0:
			joiners := RandomRefs(p164, 10, rng, taken)
			for _, j := range joiners {
				net.ScheduleJoin(j, pickLive(), net.Engine().Now())
				live = append(live, j)
			}
			net.Run()
		case 1:
			var names []string
			for count := 0; count < 5 && len(live) >= 20; count++ {
				x := removeLive(rng.Intn(len(live)))
				net.ScheduleLeave(x.ID, net.Engine().Now())
				names = append(names, x.ID.String())
			}
			net.Run()
			g := net.FinalizeLeaves()
			t.Logf("phase %d leavers %v finalized %d", phase, names, len(g))
			for x, nd := range net.nodes {
				m := nd.Machine()
				if m.Status() == core.StatusLeaving {
					var pend []string
					for _, p := range m.LeaveAcksPending() {
						status := "GONE"
						if mm, ok := net.Machine(p); ok {
							status = mm.Status().String()
						}
						pend = append(pend, p.String()+"/"+status)
					}
					t.Logf("  STUCK leaver %v awaiting %v", x, pend)
				}
			}
		case 2:
			if len(live) >= 20 {
				x := removeLive(rng.Intn(len(live)))
				net.InjectFailure(x.ID)
				st := net.RecoverFailure(x.ID, rng, 0)
				t.Logf("phase %d crash %v: %+v", phase, x.ID, st)
			}
		}
		if v := net.CheckConsistency(); len(v) != 0 {
			t.Fatalf("phase %d: %v (of %d)", phase, v[0], len(v))
		}
	}
}

package federation

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/topology"
)

// TestChaosPlaneKillAccounting is the plane-failure acceptance test:
// concurrent closed-loop churn across 3 planes, one plane killed
// mid-run, and a full accounting at the end proving zero lost
// (unaccounted) connections — every granted circuit was either released
// cleanly or terminated with a documented terminal error that the
// router's loss counter agrees with, and every plane drains to zero
// active circuits and zero occupied channels. Run under -race in CI.
func TestChaosPlaneKillAccounting(t *testing.T) {
	// The run must migrate circuits, and two timing effects can stop it.
	// At this load, streaks of unroutable denials open health breakers on
	// their own — the victim's before the kill, or every survivor's
	// before the migrations — so ejection is held off (a huge streak, a
	// frozen score); KillPlane ejects its victim explicitly either way.
	// And owners churning their circuits release a revoked one before a
	// slow repair loop gives up on it, so one repair attempt is allowed:
	// the revoked circuits die in the first epoch after the kill.
	cfg := Config{Policy: PolicyRoundRobin, EjectAfter: 1 << 30, HealthAlpha: 1e-9}
	for i := 0; i < 3; i++ {
		cfg.Planes = append(cfg.Planes, PlaneConfig{
			Fabric: fabric.Config{
				Tree:          topology.MustNew(3, 4, 4),
				BatchSize:     8,
				MaxWait:       100 * time.Microsecond,
				RepairRetries: 1,
				RepairBackoff: time.Millisecond,
			},
		})
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	var (
		stop             atomic.Bool
		grantTotal       atomic.Uint64
		releasedOK       atomic.Uint64
		releasedLost     atomic.Uint64
		releasedDegraded atomic.Uint64
		releasedOther    atomic.Uint64
		errMu            sync.Mutex
		otherErr         error // first unexpected release error
		wg               sync.WaitGroup
		nodes            = r.Nodes()
	)
	account := func(err error) {
		switch {
		case err == nil:
			releasedOK.Add(1)
		case errors.Is(err, ErrConnLost):
			releasedLost.Add(1)
		case errors.Is(err, fabric.ErrUnroutableDegraded):
			// The owner's Release raced the terminal verdict ahead of
			// the router's migration hook: the plane's documented
			// repair-exhaustion error, already fully torn down.
			releasedDegraded.Add(1)
		default:
			releasedOther.Add(1)
			errMu.Lock()
			if otherErr == nil {
				otherErr = err
			}
			errMu.Unlock()
		}
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			g := lcg(seed)
			var held []*Handle
			for !stop.Load() {
				if len(held) >= 12 || (len(held) > 0 && g.next(4) == 0) {
					h := held[0]
					held = held[1:]
					account(h.Release())
					continue
				}
				src, dst := g.next(nodes), g.next(nodes)
				h, err := r.Connect(context.Background(), src, dst)
				if err != nil {
					continue // denial; nothing held
				}
				grantTotal.Add(1)
				held = append(held, h)
			}
			for _, h := range held {
				account(h.Release())
			}
		}(uint64(w)*2654435761 + 1)
	}

	time.Sleep(60 * time.Millisecond)
	if err := r.KillPlane("plane1"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(120 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	// Let in-flight migrations and the killed plane's repair loop settle.
	deadline := time.Now().Add(10 * time.Second)
	for {
		s := r.Stats()
		settled := s.PendingReadmits == 0
		for _, ps := range s.Planes {
			if ps.Fabric.PendingRepairs != 0 {
				settled = false
			}
		}
		if settled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("migrations never settled: %+v", s)
		}
		time.Sleep(time.Millisecond)
	}
	// A migration that completed after its owner's Release hands the
	// fresh circuit straight back asynchronously; one more poll round
	// covers that final release.
	var s Stats
	for {
		s = r.Stats()
		clean := true
		for _, ps := range s.Planes {
			if ps.Fabric.Active != 0 || ps.Occupancy != 0 {
				clean = false
			}
		}
		if clean {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("planes never drained: %+v", s)
		}
		time.Sleep(time.Millisecond)
	}

	if n := releasedOther.Load(); n != 0 {
		t.Errorf("%d releases returned undocumented errors, first: %v", n, otherErr)
	}
	got := releasedOK.Load() + releasedLost.Load() + releasedDegraded.Load() + releasedOther.Load()
	if got != grantTotal.Load() {
		t.Errorf("accounting leak: %d grants, %d accounted releases", grantTotal.Load(), got)
	}
	if releasedLost.Load() != s.Lost {
		t.Errorf("ErrConnLost releases %d != router Lost %d", releasedLost.Load(), s.Lost)
	}
	if s.PendingReadmits != 0 {
		t.Errorf("PendingReadmits = %d after settle", s.PendingReadmits)
	}
	if grantTotal.Load() == 0 || s.Readmitted == 0 {
		t.Errorf("chaos run exercised nothing: grants %d, readmitted %d", grantTotal.Load(), s.Readmitted)
	}
	t.Logf("grants=%d failovers=%d readmitted=%d lost=%d degraded-drains=%d",
		grantTotal.Load(), s.Failovers, s.Readmitted, s.Lost, releasedDegraded.Load())

	if err := r.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := fmt.Errorf("wrapped: %w", ErrConnLost); !errors.Is(err, ErrConnLost) {
		t.Error("ErrConnLost does not survive wrapping")
	}
}

package fabric

// Fault injection and connection repair. Failing a component masks its
// channels in the link state (so subsequent epochs schedule around it),
// finds every granted connection whose recorded route crosses it by
// replaying the Theorem 2 walk with a topology.RouteCursor, and revokes
// them: healthy channels return to the fabric immediately, and each
// stranded connection re-enters the normal epoch queue as a repair
// ticket. Repairs retry with exponential backoff up to
// Config.RepairRetries times before the handle dies with
// ErrUnroutableDegraded. Repair reverses faults; already-revoked
// connections finish their repair on the healed fabric.

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/linkstate"
	"repro/internal/topology"
)

// Fail applies a fault set to the fabric: masks every named channel,
// revokes the granted connections whose routes cross a newly failed
// channel, and queues them for repair. It returns the number of
// channels newly taken out of service and the number of connections
// revoked. Failing an already-failed channel is a no-op.
func (m *Manager) Fail(fs *faults.FaultSet) (failed, revoked int, err error) {
	if err := fs.Validate(m.cfg.Tree); err != nil {
		return 0, 0, err
	}
	chans := fs.Channels(m.cfg.Tree)
	m.mu.Lock()
	if m.closed.Load() {
		m.mu.Unlock()
		return 0, 0, ErrClosed
	}
	// Retire parked releases before the revoke walk so an already-
	// released connection is not revoked into a pointless repair, and
	// settle staged departures while their channels are still healthy —
	// those releases happened logically before this fault.
	m.drainReleasesLocked()
	m.applyDeparturesLocked()
	now := time.Now()
	damping := m.dampingLocked()
	if damping {
		m.settleQuarantineLocked(now)
	}
	fresh := make(map[faults.Channel]struct{}, len(chans))
	for _, c := range chans {
		if _, already := m.failed[c]; already {
			continue
		}
		_, wasQuar := m.quar[c]
		if damping {
			m.noteFlapLocked(c, now)
		}
		if wasQuar {
			// Already masked by quarantine: no connection can be crossing
			// it and no capacity is newly lost. Record the fault (Faults
			// and Repair track it) without the revoke walk.
			m.failed[c] = struct{}{}
			continue
		}
		m.st.FailLink(c.Dir, c.Level, c.Switch, c.Port)
		m.failed[c] = struct{}{}
		fresh[c] = struct{}{}
		failed++
	}
	if len(fresh) > 0 {
		for h := range m.conns {
			if h.state.Load() != handleActive || !m.routeCrossesLocked(h, fresh) {
				continue
			}
			if h.released.Load() {
				// The owner is releasing it concurrently (its Release won
				// the CAS after the drain above). Finish that release now,
				// while the mask still covers the dead channels — a Repair
				// before the next drain would hand them back free first —
				// and mark the handle dead so the ring drain or the slow
				// path that follows does nothing more.
				m.finishReleaseLocked(h)
				h.state.Store(handleDead)
				continue
			}
			m.revokeLocked(h)
			revoked++
		}
	}
	m.mu.Unlock()
	if revoked > 0 {
		m.wake() // repair tickets are waiting for the next epoch
	}
	return failed, revoked, nil
}

// repairChannelLocked returns a masked channel to service. Staged
// departures are applied first, while the mask still covers the
// channels their fault-aware teardown skips: RepairLink hands the
// channel back free, and a departure torn down after it would release
// it a second time. Caller holds m.mu.
func (m *Manager) repairChannelLocked(c faults.Channel) {
	m.applyDeparturesLocked()
	m.st.RepairLink(c.Dir, c.Level, c.Switch, c.Port)
}

// FailLink fails one link's channels (dir faults.Both for the whole
// physical link) and returns the number of connections revoked.
func (m *Manager) FailLink(level, sw, port int, dir faults.Direction) (int, error) {
	_, revoked, err := m.Fail(&faults.FaultSet{Links: []faults.LinkFault{
		{Level: level, Switch: sw, Port: port, Direction: dir},
	}})
	return revoked, err
}

// FailSwitch fails a whole switch — every incident link, both sides —
// and returns the number of connections revoked.
func (m *Manager) FailSwitch(level, sw int) (int, error) {
	_, revoked, err := m.Fail(&faults.FaultSet{Switches: []faults.SwitchFault{
		{Level: level, Switch: sw},
	}})
	return revoked, err
}

// Repair returns a fault set's channels to service. Channels of the set
// that are not currently failed are skipped; it returns the number
// actually repaired. Connections revoked by the fault stay in the
// repair loop and will be re-admitted by an upcoming epoch.
func (m *Manager) Repair(fs *faults.FaultSet) (int, error) {
	if err := fs.Validate(m.cfg.Tree); err != nil {
		return 0, err
	}
	chans := fs.Channels(m.cfg.Tree)
	m.mu.Lock()
	m.settleQuarantineLocked(time.Now())
	repaired := 0
	for _, c := range chans {
		if _, bad := m.failed[c]; !bad {
			continue
		}
		delete(m.failed, c)
		if _, q := m.quar[c]; q {
			continue // quarantine owns the mask; probation releases it
		}
		m.repairChannelLocked(c)
		repaired++
	}
	m.mu.Unlock()
	if repaired > 0 {
		m.wake()
	}
	return repaired, nil
}

// RepairAll heals every outstanding fault and reports how many
// channels returned to service. Quarantined channels are healed as
// faults but stay masked until their probation passes (ClearQuarantine
// overrides); they are not counted.
func (m *Manager) RepairAll() int {
	m.mu.Lock()
	m.settleQuarantineLocked(time.Now())
	repaired := 0
	for c := range m.failed {
		delete(m.failed, c)
		if _, q := m.quar[c]; q {
			continue // stays masked until its probation passes
		}
		m.repairChannelLocked(c)
		repaired++
	}
	m.mu.Unlock()
	if repaired > 0 {
		m.wake()
	}
	return repaired
}

// Faults returns the current fault set in canonical form: one LinkFault
// per failed link, direction Both when both channels are down,
// deterministically ordered. (Switch faults are reported as their
// expanded links; the fabric tracks channels, not causes.)
func (m *Manager) Faults() *faults.FaultSet {
	m.mu.Lock()
	type link struct{ level, sw, port int }
	dirs := make(map[link]int) // bit 0: up failed, bit 1: down failed
	for c := range m.failed {
		bit := 1
		if c.Dir == linkstate.Down {
			bit = 2
		}
		dirs[link{c.Level, c.Switch, c.Port}] |= bit
	}
	m.mu.Unlock()
	fs := &faults.FaultSet{}
	for l, d := range dirs {
		lf := faults.LinkFault{Level: l.level, Switch: l.sw, Port: l.port}
		switch d {
		case 1:
			lf.Direction = faults.Up
		case 2:
			lf.Direction = faults.Down
		}
		fs.Links = append(fs.Links, lf)
	}
	sort.Slice(fs.Links, func(i, j int) bool {
		a, b := fs.Links[i], fs.Links[j]
		if a.Level != b.Level {
			return a.Level < b.Level
		}
		if a.Switch != b.Switch {
			return a.Switch < b.Switch
		}
		return a.Port < b.Port
	})
	return fs
}

// routeCrossesLocked reports whether h's recorded route uses any channel
// in bad, by replaying the σ/δ lockstep climb. Caller holds m.mu.
func (m *Manager) routeCrossesLocked(h *Handle, bad map[faults.Channel]struct{}) bool {
	var c topology.RouteCursor
	c.Start(m.cfg.Tree, h.src, h.dst)
	crosses := false
	c.Walk(h.ports, func(level, sigma, delta, port int) {
		if _, hit := bad[faults.Channel{Dir: linkstate.Up, Level: level, Switch: sigma, Port: port}]; hit {
			crosses = true
		}
		if _, hit := bad[faults.Channel{Dir: linkstate.Down, Level: level, Switch: delta, Port: port}]; hit {
			crosses = true
		}
	})
	return crosses
}

// revokeLocked tears down a connection stranded by a fault: its healthy
// channels return to the fabric (failed ones are already dead in the
// mask and must not be resurrected), the handle enters the repair
// state, and a repair ticket joins the epoch queue. Caller holds m.mu.
func (m *Manager) revokeLocked(h *Handle) {
	if m.cfg.Trace != nil {
		m.cfg.Trace(Event{Kind: EventRevoke, Src: h.src, Dst: h.dst, Ports: h.ports, FailLevel: -1})
	}
	if m.inc != nil {
		// Delta mode: the revoked route departs through the same staged
		// path a Release takes, so the next delta epoch tears it down
		// (fault-aware) right before it schedules the repair ticket.
		// Ownership of the ports slice transfers to the buffer.
		m.depbuf = append(m.depbuf, core.Departure{Src: h.src, Dst: h.dst, Ports: h.ports})
		h.ports = nil
	} else {
		core.ReleaseSurviving(m.st, h.src, h.dst, h.ports, nil)
		if len(h.ports) > 0 {
			m.tornSinceEpoch++
			m.tornRoutes.Add(1)
		}
		h.ports = h.ports[:0]
	}
	h.state.Store(handleRepairing)
	h.attempts = 0
	h.revokedAt = time.Now()
	m.revoked.Add(1)
	m.active.Add(-1)
	m.pendingRepairs.Add(1)
	t := &ticket{req: core.Request{Src: h.src, Dst: h.dst}, enq: time.Now(), h: h}
	m.qmu.Lock()
	if len(m.pending) == 0 {
		m.oldest = t.enq
	}
	m.pending = append(m.pending, t)
	m.qdepth.Store(int64(len(m.pending)))
	m.qmu.Unlock()
}

// repairVerdictLocked applies one epoch's outcome to a repair ticket.
// On a grant the scheduler has already allocated the new route in m.st;
// the handle returns to active on it. On a denial the ticket either
// re-queues after an exponential backoff or — once Config.RepairRetries
// attempts are spent, or during shutdown — the handle dies. Caller
// holds m.mu (flushLocked).
func (m *Manager) repairVerdictLocked(t *ticket, o *core.Outcome, epoch uint64) {
	h := t.h
	m.repairAttempts.Add(1)
	if o.Granted {
		h.ports = append(h.ports[:0], o.Ports...)
		h.state.Store(handleActive)
		m.repaired.Add(1)
		if m.repairOnHeldTrunkLocked(h.src, h.dst, h.ports) {
			m.repairedOnHeldTrunk.Add(1)
		}
		m.active.Add(1)
		m.pendingRepairs.Add(-1)
		if m.cfg.Trace != nil {
			m.cfg.Trace(Event{Kind: EventRepair, Src: h.src, Dst: h.dst, Ports: o.Ports, FailLevel: -1, Epoch: epoch})
		}
		m.repairLat.add(float64(time.Since(h.revokedAt)) / float64(time.Millisecond))
		m.repairDepth.add(float64(h.attempts + 1))
		return
	}
	if len(o.Ports) > 0 {
		m.releaseRetainedLocked(o)
	}
	h.attempts++
	if m.closed.Load() {
		m.killRepairLocked(h, fmt.Errorf("fabric: repair aborted: %w", ErrClosed), &m.repairAborted)
		return
	}
	if h.attempts >= m.cfg.RepairRetries {
		m.killRepairLocked(h, fmt.Errorf("%w: %d→%d after %d attempts (first conflict at level %d)",
			ErrUnroutableDegraded, h.src, h.dst, h.attempts, o.FailLevel), &m.repairFailed)
		return
	}
	// Exponential backoff before the next attempt; the timer re-enqueues
	// the same ticket. Shutdown and owner Release both invalidate the
	// handle's repairing state, which the timer checks before queuing.
	delay := m.cfg.RepairBackoff << (h.attempts - 1)
	time.AfterFunc(delay, func() { m.requeueRepair(t) })
}

// killRepairLocked retires a repairing handle with a terminal error,
// bumping the given outcome counter. Caller holds m.mu. The
// OnConnTerminal hook fires on its own goroutine so it can call back
// into the manager (or another plane's) without deadlocking; it fires
// only here — every terminal repair verdict funnels through this
// function, and owner-initiated releases never do.
func (m *Manager) killRepairLocked(h *Handle, cause error, counter interface{ Add(uint64) uint64 }) {
	h.state.Store(handleDead)
	h.repairErr = cause
	delete(m.conns, h)
	m.pendingRepairs.Add(-1)
	counter.Add(1)
	if m.cfg.OnConnTerminal != nil {
		go m.cfg.OnConnTerminal(h, cause)
	}
}

// requeueRepair is the backoff timer's continuation: it puts the repair
// ticket back in the epoch queue, unless the handle stopped repairing
// (owner released it) or the manager is shutting down, in which case
// the repair ends here. The re-enqueue draws one token from the global
// retry budget; an empty bucket defers the retry until a token accrues
// — delayed, never dropped, and the deferral does not consume one of
// the handle's RepairRetries attempts.
func (m *Manager) requeueRepair(t *ticket) {
	m.mu.Lock()
	h := t.h
	if h.state.Load() != handleRepairing {
		m.mu.Unlock() // released by its owner mid-backoff; already retired
		return
	}
	if m.closed.Load() {
		m.killRepairLocked(h, fmt.Errorf("fabric: repair aborted: %w", ErrClosed), &m.repairAborted)
		m.mu.Unlock()
		return
	}
	now := time.Now()
	if !m.budget.take(now) {
		wait := m.budget.wait()
		m.mu.Unlock()
		m.repairBudgetExhausted.Add(1)
		time.AfterFunc(wait, func() { m.requeueRepair(t) })
		return
	}
	t.enq = now
	m.qmu.Lock()
	if len(m.pending) == 0 {
		m.oldest = t.enq
	}
	m.pending = append(m.pending, t)
	m.qdepth.Store(int64(len(m.pending)))
	m.qmu.Unlock()
	m.mu.Unlock()
	m.wake()
}

// FaultCount returns the number of currently failed channels.
func (m *Manager) FaultCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.failed)
}

// Package fabric is the serving layer over the Level-wise scheduler: a
// goroutine-safe fabric manager that owns the live link state of one fat
// tree and admits long-lived connections for many concurrent clients —
// the centralized circuit-setup service the paper motivates.
//
// Connect calls do not schedule individually. They are coalesced into
// scheduling *epochs*: an epoch flushes when Config.BatchSize requests
// are queued or when the oldest queued request has waited Config.MaxWait,
// whichever comes first. Each epoch is granted atomically by one
// scheduler pass over the live link state, so per-request admission cost
// amortizes to the paper's O(l·log_l N) hot path and the (not
// concurrency-safe) linkstate.State is only ever mutated under the
// manager's lock.
//
// The admission engine is named by Config.SchedulerSpec in
// internal/sched's registry grammar, and that string is the only way to
// pick one: "parallel,mode=…,workers=…" runs every epoch on the parallel
// Level-wise engine (internal/parsched), and
// "level-wise,rollback,incremental[,reuse-cost=K]" switches the manager
// to delta epochs. Grant and reject notifications are staged under the
// lock and delivered after it is released, so client wakeups never
// extend the critical section.
//
// The client hot paths are decoupled from the scheduling lock: Connect
// enqueues under a queue-only lock that no epoch ever holds, and
// Release parks the handle in a lock-free MPSC ring that the next epoch
// drains, so both are a few atomic operations regardless of how long a
// scheduling pass runs.
//
// Robustness: the admission queue is bounded (Config.QueueLimit) and
// exerts backpressure by blocking Connect until a slot frees; a queued
// request leaves cleanly when its context is cancelled or the configured
// admission timeout expires; Close stops intake, drains the queue through
// a final epoch, and then stops the flusher.
//
// Observability: atomic counters (offered / granted / rejected /
// cancelled / released / overflow), epoch-size and epoch-latency
// distributions built on internal/stats, and a live utilization
// snapshot, all through Stats. The optional Config.Trace hook observes
// every state mutation in serialization order, which is how tests replay
// the grant/release history against a fresh link state.
package fabric

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/linkstate"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/topology"
)

// Defaults used by New when the corresponding Config field is zero.
const (
	DefaultBatchSize     = 32
	DefaultMaxWait       = 2 * time.Millisecond
	DefaultQueueLimit    = 1024
	DefaultRepairRetries = 8
	DefaultRepairBackoff = 2 * time.Millisecond
)

// releaseRingSize is the capacity of the lock-free release ring. A full
// ring is backpressure-free: the overflowing Release takes the
// synchronous path under the manager lock.
const releaseRingSize = 1024

// Sentinel errors returned by Connect and Release. Scheduler denials are
// *UnroutableError values that match ErrUnroutable under errors.Is.
var (
	ErrClosed       = errors.New("fabric: manager closed")
	ErrAdmitTimeout = errors.New("fabric: admission timed out")
	ErrReleased     = errors.New("fabric: handle already released")
	ErrUnroutable   = errors.New("fabric: unroutable")
)

// ErrDraining is returned by Connect while Close is in progress, so
// clients can tell shutdown from backpressure (a full queue blocks; a
// draining manager refuses). It wraps ErrClosed: existing
// errors.Is(err, ErrClosed) checks keep matching.
var ErrDraining = fmt.Errorf("fabric: draining (shutting down, not backpressure): %w", ErrClosed)

// ErrUnroutableDegraded is the terminal verdict of the repair loop: a
// revoked connection could not be re-admitted on the degraded fabric
// within Config.RepairRetries attempts. Handle.Err reports it and a
// Release of the dead handle returns it.
var ErrUnroutableDegraded = errors.New("fabric: unroutable on degraded fabric")

// UnroutableError reports a scheduler denial: no conflict-free path
// existed for the request in its epoch. FailLevel is the level of the
// first unresolvable conflict (the empty Ulink AND Dlink conjunction).
type UnroutableError struct {
	Src, Dst  int
	FailLevel int
}

// Error renders the denial.
func (e *UnroutableError) Error() string {
	return fmt.Sprintf("fabric: no route %d→%d (first conflict at level %d)", e.Src, e.Dst, e.FailLevel)
}

// Is matches the ErrUnroutable sentinel.
func (e *UnroutableError) Is(target error) bool { return target == ErrUnroutable }

// Config parameterizes a Manager.
type Config struct {
	// Tree is the fat tree being managed. Required.
	Tree *topology.Tree
	// SchedulerSpec names the admission engine in internal/sched's
	// registry grammar (e.g. "level-wise,rollback", "backtrack,depth=2",
	// "parallel,mode=shard,workers=8"). Empty means the default
	// "level-wise,rollback". A level-wise spec carrying the incremental
	// flag ("level-wise,rollback,incremental[,reuse-cost=K]") runs delta
	// epochs: granted routes stay allocated across epochs and each pass
	// admits only the arrival delta, with releases, revocations, and
	// repairs flowing through the same departure path. Engines that
	// retain a failed request's partial allocations are safe: the
	// manager releases retained ports after every epoch, since a
	// rejected connection holds nothing.
	SchedulerSpec string
	// BatchSize is the epoch flush threshold (default DefaultBatchSize).
	// 1 disables batching: every request is its own epoch.
	BatchSize int
	// MaxWait bounds how long the oldest queued request waits before its
	// epoch flushes regardless of size (default DefaultMaxWait).
	MaxWait time.Duration
	// QueueLimit bounds the admission queue; Connect blocks (backpressure)
	// while the queue is full. Default DefaultQueueLimit, raised to
	// BatchSize if smaller so one full epoch always fits.
	QueueLimit int
	// AdmitTimeout, when positive, caps the total time a Connect call may
	// spend waiting — for a queue slot and then for its epoch's verdict.
	// Zero means wait indefinitely (until ctx cancels).
	AdmitTimeout time.Duration
	// Trace, when non-nil, receives one Event per link-state mutation
	// (grant, release) and per queue drop (reject, cancel), invoked in
	// exact serialization order under the manager lock. Keep it fast; the
	// Ports slice aliases live storage (for grants, the scheduler's reused
	// ports arena) — treat it as read-only and copy it before retaining.
	Trace func(Event)
	// RepairRetries bounds how many scheduling attempts a revoked
	// connection gets before the repair is abandoned with
	// ErrUnroutableDegraded (default DefaultRepairRetries).
	RepairRetries int
	// RepairBackoff is the base delay between repair attempts; attempt k
	// (0-based) waits RepairBackoff << k before re-entering the epoch
	// queue (default DefaultRepairBackoff). The first attempt is
	// immediate: a revoked connection joins the very next epoch.
	RepairBackoff time.Duration
	// OnConnTerminal, when non-nil, is invoked (on its own goroutine,
	// no manager lock held) each time the repair loop retires a revoked
	// connection with a terminal error — retries exhausted
	// (ErrUnroutableDegraded) or shutdown mid-repair (wrapping
	// ErrClosed). It does NOT fire when the owner's own Release aborts a
	// repair: the owner asked for the teardown and already has the
	// verdict. Federation uses this hook to re-admit the dead circuit on
	// a surviving plane.
	OnConnTerminal func(c Conn, cause error)
	// RepairBudget globally rate-limits repair retries with a token
	// bucket (see gray.go): every re-enqueue after a denied repair
	// attempt draws one token, and an empty bucket defers the retry
	// until a token accrues (the retry is delayed, never dropped — and
	// the deferral does not consume a RepairRetries attempt). The first
	// attempt after a revocation is free. The zero value selects the
	// defaults (DefaultRepairBudgetRate, DefaultRepairBudgetBurst); a
	// negative Rate disables the limit. Stats.RepairBudgetExhausted
	// counts deferrals.
	RepairBudget Budget
	// FlapThreshold enables flap damping when positive: each channel's
	// down-transitions accumulate in a score that decays with half-life
	// FlapHalfLife, and a channel whose score reaches the threshold is
	// quarantined — masked like a failed channel — until
	// QuarantineProbation passes without further flapping. 0 (the
	// default) disables damping entirely; behavior is then bit-identical
	// to the clean-fault model.
	FlapThreshold float64
	// FlapHalfLife is the flap-score decay half-life (default
	// DefaultFlapHalfLife; used only when FlapThreshold > 0).
	FlapHalfLife time.Duration
	// QuarantineProbation is how long a quarantined channel stays masked
	// after its last flap (default DefaultQuarantineProbation; used only
	// when FlapThreshold > 0).
	QuarantineProbation time.Duration
}

// EventKind classifies a Trace event.
type EventKind int

// Trace event kinds.
const (
	EventGrant EventKind = iota
	EventReject
	EventRelease
	EventCancel
	// EventRevoke records a fault taking down a granted connection: its
	// healthy channels returned to the fabric, the handle entering the
	// repair loop. Ports are the route it held.
	EventRevoke
	// EventRepair records a successful re-admission of a revoked
	// connection; Ports are the new route.
	EventRepair
)

// String names the kind.
func (k EventKind) String() string {
	switch k {
	case EventGrant:
		return "grant"
	case EventReject:
		return "reject"
	case EventRelease:
		return "release"
	case EventCancel:
		return "cancel"
	case EventRevoke:
		return "revoke"
	case EventRepair:
		return "repair"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one serialized admission-engine action.
type Event struct {
	Kind     EventKind
	Src, Dst int
	// Ports are the allocated upward ports (grant and release only).
	Ports []int
	// FailLevel is the first conflict level (reject only; -1 otherwise).
	FailLevel int
	// Epoch is the 1-based epoch sequence number (grant/reject only).
	Epoch uint64
}

// ticket lifecycle states.
const (
	ticketWaiting int32 = iota
	ticketClaimed       // taken by an epoch flush; a verdict will arrive
	ticketCancelled
)

// ticket is one queued Connect call — or, when h is non-nil, one repair
// attempt for a revoked connection. Repair tickets ride the same epoch
// queue but hold no queue slot (they never displace client admissions),
// have no resp channel (nobody is blocked on them; the verdict mutates
// the handle), and are claimed by handle state rather than the CAS
// (Release of a repairing handle is their cancellation path).
type ticket struct {
	req   core.Request
	enq   time.Time
	state atomic.Int32
	resp  chan result // buffered(1): the flusher's send never blocks
	h     *Handle     // repair tickets only
}

type result struct {
	h   *Handle
	err error
}

// delivery is one verdict staged under the manager lock and sent to its
// waiting Connect call after the lock is dropped, so channel sends (and
// the goroutine wakeups they trigger) never extend the critical section.
type delivery struct {
	t *ticket
	r result
}

// delbatch carries one epoch's staged verdicts out of the lock to the
// goroutine that ran the epoch. Batches come from Manager.delPool and
// return there once delivered, so one goroutine's delivery can overlap
// the next epoch without sharing a buffer.
type delbatch struct {
	d []delivery
}

// Handle lifecycle states. A handle is born active; a fault crossing
// its route revokes it to repairing (its channels returned, a repair
// ticket queued); a successful re-admission returns it to active on a
// new route; exhausting Config.RepairRetries, manager shutdown, or the
// owner's Release while repairing kills it. Transitions happen under
// m.mu; the atomic makes the lock-free Release fast path's read safe.
const (
	handleActive int32 = iota
	handleRepairing
	handleDead
)

// Handle is a granted connection. Release it through Manager.Release
// (or its Release method) exactly once. A fault on its route may revoke
// and transparently re-admit it (the route — Ports — changes); Err
// reports whether the connection was lost for good.
type Handle struct {
	m        *Manager
	src, dst int
	released atomic.Bool
	// state transitions only under m.mu; loads may be lock-free.
	state atomic.Int32

	// Guarded by m.mu: the repair loop rewrites the route and walks the
	// state machine above.
	ports     []int
	attempts  int       // repair scheduling attempts so far
	revokedAt time.Time // when the current repair began
	repairErr error     // terminal cause once state == handleDead
}

// Src returns the source node.
func (h *Handle) Src() int { return h.src }

// Dst returns the destination node.
func (h *Handle) Dst() int { return h.dst }

// Ports returns a copy of the upward port choices, one per level below
// the common ancestor (empty when both endpoints share a level-0 switch).
// The route changes when a fault revokes the connection and the repair
// loop re-admits it; a repairing or dead handle has no route.
func (h *Handle) Ports() []int {
	h.m.mu.Lock()
	defer h.m.mu.Unlock()
	return append([]int(nil), h.ports...)
}

// Err reports why the connection died: ErrUnroutableDegraded after the
// repair loop gave up, ErrClosed if the manager shut down mid-repair,
// nil while the handle is alive (active or repairing).
//
// A live handle answers from the atomic state without touching m.mu, so
// the federation's post-grant check never queues behind an epoch. Only
// a dead handle takes the lock: killRepairLocked stores repairErr under
// it, so once the lock is ours the cause is there to read.
func (h *Handle) Err() error {
	if h.state.Load() != handleDead {
		return nil
	}
	h.m.mu.Lock()
	defer h.m.mu.Unlock()
	return h.repairErr
}

// Repairing reports whether the handle is currently revoked and waiting
// on the repair loop.
func (h *Handle) Repairing() bool {
	return h.state.Load() == handleRepairing
}

// Release returns the connection's channels to the fabric.
func (h *Handle) Release() error { return h.m.Release(h) }

// Manager is a goroutine-safe fabric manager. Create one with New; all
// methods may be called from any goroutine.
type Manager struct {
	cfg Config
	eng sched.Engine
	// scratch holds the scheduler's reusable working buffers (used only
	// under mu). inc, when non-nil, puts the manager in incremental
	// (delta-epoch) mode: granted routes stay allocated across epochs,
	// releases stage departures in depbuf, and each flush calls
	// ScheduleDeltaInto. reuseCost echoes the engine's reuse-cost cap.
	scratch   *core.Scratch
	inc       sched.Incremental
	reuseCost int

	// freeSlots is the queue-slot semaphore (backpressure), kept as an
	// atomic so the uncontended Connect fast path is one CAS instead of a
	// channel round-trip. slotsCh is the coalescing wakeup for Connect
	// calls blocked on a full queue: releaseSlots posts one token after
	// adding slots, and a woken waiter re-signals while spare slots
	// remain (the cascade), so one channel op wakes any number of
	// waiters without a per-slot send.
	freeSlots atomic.Int64
	slotsCh   chan struct{} // cap 1, coalescing
	kick      chan struct{} // wakes the flusher (buffered 1, coalescing)
	closing   chan struct{}
	done      chan struct{} // flusher exited
	closeMu   sync.Once

	// ticketPool recycles tickets (and their buffered resp channels)
	// across Connect calls. Only a ticket whose verdict was received is
	// recycled — the receive happens-after the flusher's send, and the
	// flusher drops its references when it stages the send — so a pooled
	// ticket is never still referenced by an epoch. Cancelled tickets
	// whose CAS beat the epoch are never pooled (the flusher may still
	// hold them in a drained batch); they retire to the garbage
	// collector.
	ticketPool sync.Pool

	// delPool recycles the staged-verdict batches (see delbatch).
	delPool sync.Pool

	// mu is the scheduling lock: it guards st, lastEngine, conns, failed,
	// the mutable handle fields, and serializes the release-ring consumer
	// (drainReleasesLocked). The admission queue is NOT under mu — see
	// qmu — so Connect never contends with an epoch's scheduling pass.
	mu         sync.Mutex
	st         *linkstate.State
	lastEngine string // scheduler that ran the most recent epoch
	// conns registers every live handle (active or repairing) so fault
	// injection can find the connections a failed component strands.
	conns map[*Handle]struct{}
	// failed is the current fault set at channel granularity. The
	// linkstate fault mask is the union of failed and quar: a channel is
	// scheduled around while either set holds it.
	failed map[faults.Channel]struct{}
	// Gray-failure state (guarded by mu; see gray.go). flap holds the
	// decayed per-channel flap scores, quar the quarantined channels and
	// their probation deadlines, budget the repair-retry token bucket.
	flap   map[faults.Channel]*flapScore
	quar   map[faults.Channel]time.Time
	budget bucket

	// qmu guards the admission queue (pending, oldest) and orders writes
	// of closed against enqueues, keeping Connect's critical section to
	// an append — a few pointer writes — while the flusher schedules
	// under mu. Lock order: mu before qmu, never the reverse.
	qmu     sync.Mutex
	pending []*ticket
	oldest  time.Time    // enqueue time of pending[0]
	closed  atomic.Bool  // set under qmu; loads may be lock-free
	qdepth  atomic.Int64 // len(pending); written under qmu, read lock-free

	// relRing parks fast-path releases until a mu holder drains them
	// (epoch flush, Stats, Fail, or a synchronous Release).
	relRing *releaseRing

	// depbuf stages departures in incremental mode (guarded by mu): a
	// released or revoked route parks here, ownership of its ports
	// transferred from the handle, until the next delta epoch consumes it
	// through ScheduleDeltaInto — or a settle point (Stats, Fail, Close,
	// a synchronous Release) applies it directly. tornSinceEpoch
	// accumulates routes torn down since the last scheduling epoch, in
	// every mode, and feeds the per-epoch route-churn sample.
	depbuf         []core.Departure
	tornSinceEpoch int

	// Epoch scratch buffers (guarded by mu), reused across flushes so
	// steady-state epochs allocate only the Handles they grant. qspare
	// ping-pongs with pending's backing array: each flush swaps the
	// queue out under qmu and donates the drained batch back. Staged
	// verdicts live in pooled delbatches (delPool), not here — they
	// outlive the lock.
	livebuf []*ticket
	reqbuf  []core.Request
	qspare  []*ticket

	offered, granted, rejected, cancelled atomic.Uint64
	released, overflow, epochs            atomic.Uint64
	drainRefused                          atomic.Uint64
	active                                atomic.Int64

	// Repair-loop counters: every revocation ends in exactly one of
	// repaired, repairFailed (retries exhausted), or repairAborted
	// (shutdown or owner release mid-repair); pendingRepairs tracks the
	// in-flight difference.
	revoked, repaired           atomic.Uint64
	repairFailed, repairAborted atomic.Uint64
	pendingRepairs              atomic.Int64

	// Gray-failure counters: repairAttempts counts scheduling attempts
	// the repair loop made (one per verdict), repairBudgetExhausted the
	// retries deferred by an empty token bucket, flapEvents every
	// down-transition damping observed, quarantineEvents quarantine
	// entries, repairedOnHeldTrunk successful repairs whose new route
	// landed on a trunk already carrying held circuits.
	repairAttempts        atomic.Uint64
	repairBudgetExhausted atomic.Uint64
	flapEvents            atomic.Uint64
	quarantineEvents      atomic.Uint64
	repairedOnHeldTrunk   atomic.Uint64

	// Route-churn counters: tornRoutes counts routes torn down (release,
	// revoke, or delta-epoch departure with held channels),
	// establishedRoutes counts routes set up (grants and repairs with
	// held channels). Their per-epoch sum is the reconfiguration-cost
	// signal the incremental mode exists to shrink.
	tornRoutes        atomic.Uint64
	establishedRoutes atomic.Uint64

	// Distributions: lock-free log-bucket histograms, recorded with a few
	// atomic adds and summarized by Stats in O(buckets).
	epochSize   stats.Hist
	epochLat    stats.Hist
	repairLat   stats.Hist // revoke → successful re-admission, milliseconds
	repairDepth stats.Hist // scheduling attempts per successful repair
	routeChurn  stats.Hist // routes torn + established, per scheduling epoch
}

// New validates the config, applies defaults, and starts the manager's
// flusher goroutine — the only goroutine a Manager owns. Stop it with
// Close.
func New(cfg Config) (*Manager, error) {
	return newManager(cfg, releaseRingSize, nil)
}

// newManager is New with the release ring's capacity and the engine as
// parameters, so tests can exercise the full-ring fallback on a tiny
// ring and install scheduler fakes. A nil eng is built from
// cfg.SchedulerSpec.
func newManager(cfg Config, ringSize int, eng sched.Engine) (*Manager, error) {
	if cfg.Tree == nil {
		return nil, errors.New("fabric: nil tree")
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = DefaultBatchSize
	}
	if cfg.MaxWait <= 0 {
		cfg.MaxWait = DefaultMaxWait
	}
	if cfg.QueueLimit <= 0 {
		cfg.QueueLimit = DefaultQueueLimit
	}
	if cfg.QueueLimit < cfg.BatchSize {
		cfg.QueueLimit = cfg.BatchSize
	}
	if cfg.RepairRetries <= 0 {
		cfg.RepairRetries = DefaultRepairRetries
	}
	if cfg.RepairBackoff <= 0 {
		cfg.RepairBackoff = DefaultRepairBackoff
	}
	if cfg.FlapThreshold < 0 {
		return nil, fmt.Errorf("fabric: negative FlapThreshold %v", cfg.FlapThreshold)
	}
	if cfg.FlapHalfLife < 0 {
		return nil, fmt.Errorf("fabric: negative FlapHalfLife %s", cfg.FlapHalfLife)
	}
	if cfg.QuarantineProbation < 0 {
		return nil, fmt.Errorf("fabric: negative QuarantineProbation %s", cfg.QuarantineProbation)
	}
	if cfg.FlapHalfLife == 0 {
		cfg.FlapHalfLife = DefaultFlapHalfLife
	}
	if cfg.QuarantineProbation == 0 {
		cfg.QuarantineProbation = DefaultQuarantineProbation
	}
	switch {
	case cfg.RepairBudget.Rate < 0:
		// Unlimited; a Burst alongside it is meaningless.
		if cfg.RepairBudget.Burst != 0 {
			return nil, fmt.Errorf("fabric: RepairBudget.Burst %d with negative (unlimited) Rate", cfg.RepairBudget.Burst)
		}
	case cfg.RepairBudget.Rate == 0 && cfg.RepairBudget.Burst == 0:
		cfg.RepairBudget = Budget{Rate: DefaultRepairBudgetRate, Burst: DefaultRepairBudgetBurst}
	case cfg.RepairBudget.Rate == 0:
		return nil, fmt.Errorf("fabric: RepairBudget.Burst %d without a Rate (set Rate > 0, or Rate < 0 for unlimited)", cfg.RepairBudget.Burst)
	case cfg.RepairBudget.Burst < 0:
		return nil, fmt.Errorf("fabric: negative RepairBudget.Burst %d", cfg.RepairBudget.Burst)
	case cfg.RepairBudget.Burst == 0:
		cfg.RepairBudget.Burst = int(math.Ceil(cfg.RepairBudget.Rate))
	}
	switch {
	case eng != nil:
		// A test's scheduler fake.
	case cfg.SchedulerSpec != "":
		var err error
		if eng, err = sched.Parse(cfg.SchedulerSpec); err != nil {
			return nil, err
		}
	default:
		eng = sched.Wrap(&core.LevelWise{Opts: core.Options{Rollback: true}})
	}
	m := &Manager{
		cfg:     cfg,
		eng:     eng,
		scratch: core.NewScratch(),
		slotsCh: make(chan struct{}, 1),
		kick:    make(chan struct{}, 1),
		closing: make(chan struct{}),
		done:    make(chan struct{}),
		st:      newTrackedState(cfg.Tree),
		conns:   make(map[*Handle]struct{}),
		failed:  make(map[faults.Channel]struct{}),
		flap:    make(map[faults.Channel]*flapScore),
		quar:    make(map[faults.Channel]time.Time),
		budget:  newBucket(cfg.RepairBudget, time.Now()),
		relRing: newReleaseRing(ringSize),
	}
	// Delta-epoch mode is exactly a level-wise engine carrying the
	// incremental flag (core.LevelWise implements ScheduleDeltaInto).
	if lw, ok := eng.Unwrap().(*core.LevelWise); ok && lw.Opts.Incremental {
		m.inc = lw
		m.reuseCost = lw.Opts.ReuseCost
	}
	m.freeSlots.Store(int64(cfg.QueueLimit))
	go m.flusher()
	return m, nil
}

// Connect requests a circuit from src to dst. It blocks until the
// request's epoch is scheduled and returns either a Handle or an error:
// a *UnroutableError (matching ErrUnroutable) when no conflict-free path
// existed, ctx.Err() when the context cancels first, ErrAdmitTimeout
// when Config.AdmitTimeout expires first, or ErrClosed after Close.
//
// The enqueue half is allocation-free at steady state: the ticket and
// its resp channel come from the pool, the slot semaphore is one CAS,
// and the batch timestamp is taken once per epoch, not per request.
func (m *Manager) Connect(ctx context.Context, src, dst int) (*Handle, error) {
	n := m.cfg.Tree.Nodes()
	if src < 0 || src >= n || dst < 0 || dst >= n {
		return nil, fmt.Errorf("fabric: endpoints (%d, %d) outside [0, %d)", src, dst, n)
	}
	var deadline <-chan time.Time
	if m.cfg.AdmitTimeout > 0 {
		timer := time.NewTimer(m.cfg.AdmitTimeout)
		defer timer.Stop()
		deadline = timer.C
	}
	if err := m.acquireSlot(ctx, deadline); err != nil {
		return nil, err
	}
	t := m.getTicket(src, dst)
	ok, flush := m.enqueue(t)
	if !ok {
		// Close won the race between the slot acquire and the enqueue:
		// return the slot, recycle the ticket (no epoch ever saw it), and
		// refuse as a drain — this is shutdown, not backpressure, so it
		// counts under DrainRefused rather than Overflow.
		m.releaseSlots(1)
		m.drainRefused.Add(1)
		m.putTicket(t)
		return nil, ErrDraining
	}
	if flush {
		m.tryFlushInline()
	}

	select {
	case r := <-t.resp:
		m.putTicket(t)
		return r.h, r.err
	case <-ctx.Done():
		if t.state.CompareAndSwap(ticketWaiting, ticketCancelled) {
			// The epoch will drop this ticket when it sees the CAS; it
			// must NOT be pooled — the flusher may still hold it.
			m.cancelled.Add(1)
			return nil, ctx.Err()
		}
		r := <-t.resp // an epoch already claimed the ticket; honor its verdict
		m.putTicket(t)
		return r.h, r.err
	case <-deadline:
		if t.state.CompareAndSwap(ticketWaiting, ticketCancelled) {
			m.cancelled.Add(1)
			return nil, ErrAdmitTimeout
		}
		r := <-t.resp
		m.putTicket(t)
		return r.h, r.err
	}
}

// acquireSlot takes one queue slot, blocking (backpressure) while the
// queue is full. A draining manager refuses with ErrDraining so callers
// can tell shutdown from a momentarily full queue. The uncontended path
// is one CAS; waiters park on the coalescing slotsCh token.
func (m *Manager) acquireSlot(ctx context.Context, deadline <-chan time.Time) error {
	for {
		if n := m.freeSlots.Load(); n > 0 {
			if m.freeSlots.CompareAndSwap(n, n-1) {
				return nil
			}
			continue // raced another acquirer; retry
		}
		select {
		case <-m.slotsCh:
			// Cascade: if the release that woke us freed more than the
			// slot we are about to claim, pass the token on so every
			// waiter the batch can serve wakes in turn.
			if m.freeSlots.Load() > 1 {
				m.signalSlots()
			}
		case <-ctx.Done():
			m.overflow.Add(1)
			return ctx.Err()
		case <-deadline:
			m.overflow.Add(1)
			return ErrAdmitTimeout
		case <-m.closing:
			m.drainRefused.Add(1)
			return ErrDraining
		}
	}
}

// releaseSlots returns n queue slots and posts one wakeup token; woken
// waiters cascade the token while spare slots remain, so a whole epoch's
// worth of slots comes back with a single channel operation.
func (m *Manager) releaseSlots(n int) {
	if n <= 0 {
		return
	}
	m.freeSlots.Add(int64(n))
	m.signalSlots()
}

// signalSlots posts the (coalescing) slot-wakeup token.
func (m *Manager) signalSlots() {
	select {
	case m.slotsCh <- struct{}{}:
	default:
	}
}

// getTicket returns a pooled (or fresh) client ticket, reset to the
// waiting state with its buffered resp channel ready.
func (m *Manager) getTicket(src, dst int) *ticket {
	t, _ := m.ticketPool.Get().(*ticket)
	if t == nil {
		t = &ticket{resp: make(chan result, 1)}
	}
	t.req = core.Request{Src: src, Dst: dst}
	t.state.Store(ticketWaiting)
	return t
}

// putTicket recycles a ticket whose verdict was received (or that never
// entered the queue). The caller must be past the resp receive — that
// receive happens-after the flusher's send, which is the last epoch-side
// touch — so the pool never holds a ticket an epoch still references.
func (m *Manager) putTicket(t *ticket) {
	t.req = core.Request{}
	m.ticketPool.Put(t)
}

// enqueue appends the ticket to the admission queue, reporting ok=false
// if the manager is draining and flush=true when the append reached the
// epoch threshold (the caller then tries the inline flush). One
// time.Now per batch: the first ticket of an epoch stamps m.oldest and
// later tickets inherit it — the flush timer and the epoch-latency
// sample both measure from the batch start, exactly as before, without
// a clock read per request. A first ticket below the threshold wakes
// the flusher to arm the MaxWait timer.
func (m *Manager) enqueue(t *ticket) (ok, flush bool) {
	m.qmu.Lock()
	if m.closed.Load() {
		m.qmu.Unlock()
		return false, false
	}
	if len(m.pending) == 0 {
		m.oldest = time.Now()
	}
	t.enq = m.oldest
	m.pending = append(m.pending, t)
	n := len(m.pending)
	m.qdepth.Store(int64(n))
	m.offered.Add(1)
	m.qmu.Unlock()
	if n >= m.cfg.BatchSize {
		return true, true
	}
	if n == 1 {
		m.wake()
	}
	return true, false
}

// tryFlushInline is the epoch-completion fast path: the goroutine whose
// enqueue filled the batch runs the flush itself when the epoch lock is
// free, instead of waking the flusher and paying two goroutine switches
// per round trip (the dominant cost at small epoch sizes). If the lock
// is held — an epoch in flight, a fault walk, a Stats settle — the
// flusher is woken as before; it re-checks the queue on every pass, so
// the batch is never stranded. The queue depth is re-checked under the
// lock: a concurrent flush may have already taken this goroutine's
// ticket, and flushing a fresh sub-threshold batch early would erode
// batching for no latency win.
//
// Delivering its own batch fills the caller's buffered resp channel
// with no goroutine switch at all.
func (m *Manager) tryFlushInline() {
	if !m.mu.TryLock() {
		m.wake()
		return
	}
	if int(m.qdepth.Load()) < m.cfg.BatchSize {
		m.mu.Unlock()
		return
	}
	m.runEpochUnlock()
}

// runEpochUnlock is the one epoch sequence both the flusher and the
// inline fast path run: drain the release ring, schedule the queued
// batch, unlock, deliver the verdicts. Caller holds m.mu; runEpochUnlock
// releases it before any client wakes.
func (m *Manager) runEpochUnlock() {
	m.drainReleasesLocked()
	b := m.flushLocked()
	m.mu.Unlock()
	m.deliver(b)
}

// Release returns a granted connection's channels to the fabric. It is
// idempotent-unsafe by design: a second Release of the same handle
// returns ErrReleased without touching the state. Release keeps working
// after Close so clients can drain held circuits during shutdown.
//
// The common case never takes the manager lock: the handle parks in the
// lock-free release ring and the flusher retires it at the next epoch
// boundary, so its channels are back in service before the next
// scheduling pass. Observable state (Stats, link utilization) reflects
// a parked release no later than the next epoch or Stats call, whichever
// drains first.
//
// Releasing a handle the repair loop is re-admitting cancels the repair
// (its channels were already returned at revocation) and returns nil;
// releasing a handle the repair loop already gave up on returns the
// terminal cause (matching ErrUnroutableDegraded or ErrClosed), so a
// drain loop learns which connections the faults took down.
func (m *Manager) Release(h *Handle) error {
	if h == nil {
		return errors.New("fabric: nil handle")
	}
	if h.m != m {
		return errors.New("fabric: handle belongs to a different manager")
	}
	if !h.released.CompareAndSwap(false, true) {
		return ErrReleased
	}
	// Fast path: an active handle on a running manager parks in the ring
	// — two atomic loads and one CAS. Everything else goes synchronous:
	// repairing and dead handles need their verdict now, a closed
	// manager may have no flusher left to drain for it, and a full ring
	// degrades to the lock rather than blocking.
	if h.state.Load() == handleActive && !m.closed.Load() && m.relRing.push(h) {
		return nil
	}
	return m.releaseSlow(h)
}

// releaseSlow is the synchronous Release path. It drains the ring first
// so releases retire in roughly the order their owners issued them, and
// — in incremental mode — applies the staged departures before
// returning: a synchronous Release promises its channels are back in
// service (clients drain through this path after Close, when no flusher
// is left to run a delta epoch for them).
func (m *Manager) releaseSlow(h *Handle) error {
	m.mu.Lock()
	m.drainReleasesLocked()
	var err error
	if h.state.Load() == handleDead {
		err = h.repairErr // repair loop already retired it; report why
	} else {
		m.finishReleaseLocked(h)
	}
	m.applyDeparturesLocked()
	m.mu.Unlock()
	return err
}

// drainReleasesLocked retires every handle parked in the release ring.
// Caller holds m.mu — the mutex is what makes this the ring's single
// consumer. Epoch flushes drain before scheduling, so channels freed by
// the fast path are available to the pass that follows.
func (m *Manager) drainReleasesLocked() {
	for {
		h := m.relRing.pop()
		if h == nil {
			return
		}
		m.finishReleaseLocked(h)
	}
}

// finishReleaseLocked performs the bookkeeping half of a Release under
// m.mu: return the route's channels, unregister the handle, trace,
// count. The handle state is re-read here because a fault may have
// revoked the connection between the owner's Release and this drain —
// its channels were already returned at revocation, so the queued
// repair is aborted instead (dropping the handle from conns starves the
// repair ticket and any pending backoff timer, which is the
// cancellation). A handle already dead was fully retired by the repair
// loop and holds nothing.
func (m *Manager) finishReleaseLocked(h *Handle) {
	switch h.state.Load() {
	case handleRepairing:
		h.state.Store(handleDead)
		delete(m.conns, h)
		m.pendingRepairs.Add(-1)
		m.repairAborted.Add(1)
		return
	case handleDead:
		return
	}
	ports := h.ports
	if m.inc != nil {
		// Delta mode: the route is not torn down here — it stages as a
		// departure for the next scheduling pass (or settle point), with
		// ownership of the ports slice transferring to the buffer.
		m.depbuf = append(m.depbuf, core.Departure{Src: h.src, Dst: h.dst, Ports: h.ports})
		h.ports = nil
	} else {
		m.releaseRouteLocked(h)
		if len(h.ports) > 0 {
			m.tornSinceEpoch++
			m.tornRoutes.Add(1)
		}
	}
	delete(m.conns, h)
	if m.cfg.Trace != nil {
		m.cfg.Trace(Event{Kind: EventRelease, Src: h.src, Dst: h.dst, Ports: ports, FailLevel: -1})
	}
	m.released.Add(1)
	m.active.Add(-1)
}

// applyDeparturesLocked tears down every staged departure outside a
// scheduling pass. Delta epochs normally consume the buffer through
// ScheduleDeltaInto; this is the settle point the other mu holders use
// (Stats, Fail, Close, synchronous Release) so observers, the revoke
// walk, and post-shutdown drains all see freed channels. The sweep is
// fault-aware: channels the fault mask already forfeited are skipped.
func (m *Manager) applyDeparturesLocked() {
	if len(m.depbuf) == 0 {
		return
	}
	for i := range m.depbuf {
		d := &m.depbuf[i]
		core.ReleaseSurviving(m.st, d.Src, d.Dst, d.Ports, nil)
		if len(d.Ports) > 0 {
			m.tornSinceEpoch++
			m.tornRoutes.Add(1)
		}
	}
	m.clearDeparturesLocked()
}

// clearDeparturesLocked resets the staged-departure buffer without
// releasing anything — the caller (a delta epoch, or
// applyDeparturesLocked) already returned the channels.
func (m *Manager) clearDeparturesLocked() {
	for i := range m.depbuf {
		m.depbuf[i] = core.Departure{}
	}
	m.depbuf = m.depbuf[:0]
}

// releaseRouteLocked returns an active handle's channels to the fabric.
// On a healthy fabric the whole path releases in one call; with faults
// present the Theorem 2 walk is replayed and failed channels skipped —
// they are masked out of the availability state and must not be
// resurrected. (An active route never crosses a failed channel: Fail
// revokes such connections, and finishes the release of any whose owner
// is releasing it concurrently.) A failure here is an accounting
// invariant violation, not a runtime condition.
func (m *Manager) releaseRouteLocked(h *Handle) {
	if len(m.failed) == 0 {
		if err := m.st.ReleasePath(h.src, h.dst, h.ports); err != nil {
			panic(fmt.Sprintf("fabric: release invariant violation: %v", err))
		}
		return
	}
	core.ReleaseSurviving(m.st, h.src, h.dst, h.ports, nil)
}

// Close stops admission, drains queued requests through a final epoch,
// and waits (bounded by ctx) for the flusher to exit. Held handles stay
// valid and releasable after Close. Close is idempotent.
func (m *Manager) Close(ctx context.Context) error {
	m.closeMu.Do(func() {
		m.qmu.Lock()
		m.closed.Store(true)
		m.qmu.Unlock()
		close(m.closing)
	})
	select {
	case <-m.done:
		// The flusher drained the release ring on exit, but a Release
		// that read closed=false concurrently with shutdown may have
		// parked a handle after that final drain; sweep those up (and, in
		// incremental mode, apply the staged departures — no flusher is
		// left to run a delta epoch) so the fabric is fully drained when
		// Close returns.
		m.mu.Lock()
		m.drainReleasesLocked()
		m.applyDeparturesLocked()
		m.mu.Unlock()
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// wake nudges the flusher; the buffered channel coalesces bursts.
func (m *Manager) wake() {
	select {
	case m.kick <- struct{}{}:
	default:
	}
}

// flusher is the single goroutine that runs epochs against the state.
func (m *Manager) flusher() {
	defer close(m.done)
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	for {
		// Every wake drains the release ring first: epoch boundaries are
		// where fast-path releases land, so freed channels are visible
		// to both the flush decision and any scheduling pass that
		// follows. The {n, closed} snapshot is taken under qmu (with mu
		// held), making the exit decision atomic against both Connect's
		// enqueue and Fail/requeue's repair-ticket appends.
		m.mu.Lock()
		m.drainReleasesLocked()
		if len(m.quar) > 0 { // guard: skip the clock read on the common path
			m.settleQuarantineLocked(time.Now())
		}
		m.qmu.Lock()
		n := len(m.pending)
		oldest := m.oldest
		closed := m.closed.Load()
		m.qmu.Unlock()
		if n > 0 && (closed || n >= m.cfg.BatchSize || time.Since(oldest) >= m.cfg.MaxWait) {
			m.runEpochUnlock()
			continue
		}
		var wait time.Duration
		if n > 0 {
			wait = m.cfg.MaxWait - time.Since(oldest)
		}
		m.mu.Unlock()
		if n == 0 {
			if closed {
				return
			}
			select {
			case <-m.kick:
			case <-m.closing:
			}
			continue
		}
		timer.Reset(wait)
		select {
		case <-m.kick:
		case <-timer.C:
		case <-m.closing:
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
	}
}

// flushLocked runs one epoch over every queued ticket and stages the
// verdicts. Called with m.mu held; the scheduler pass happens under the
// lock — that lock is the serialization point that makes the shared
// linkstate.State safe. The returned batch (from delPool; nil when the
// flush was empty) must be delivered by the caller after unlocking.
func (m *Manager) flushLocked() *delbatch {
	// Swap the queue out under qmu: Connect keeps enqueueing into the
	// spare array while this epoch schedules under mu.
	m.qmu.Lock()
	batch := m.pending
	m.pending = m.qspare[:0]
	m.qdepth.Store(0)
	m.qmu.Unlock()
	live := m.livebuf[:0]
	for _, t := range batch {
		if t.h != nil {
			// Repair ticket: live while its handle still wants repairing
			// (Release of the handle is the cancellation path). It holds no
			// queue slot and nobody is waiting on a resp channel.
			if t.h.state.Load() == handleRepairing {
				live = append(live, t)
			}
			continue
		}
		if t.state.CompareAndSwap(ticketWaiting, ticketClaimed) {
			live = append(live, t)
		} else if m.cfg.Trace != nil {
			// The canceller already counted it; record queue departure.
			m.cfg.Trace(Event{Kind: EventCancel, Src: t.req.Src, Dst: t.req.Dst, FailLevel: -1})
		}
	}
	freed := 0
	for _, t := range batch {
		if t.h == nil {
			freed++ // every departed client ticket frees its queue slot
		}
	}
	m.releaseSlots(freed) // one atomic add + one wakeup for the whole batch
	// Ping-pong the backing arrays: the drained batch becomes the next
	// flush's spare. Tickets travel on via live and the staged
	// deliveries; clear the refs so the spare retains nothing.
	for i := range batch {
		batch[i] = nil
	}
	m.qspare = batch[:0]
	m.livebuf = live
	if len(live) == 0 {
		// Nothing to schedule — every ticket was cancelled. Staged
		// departures still settle here, but the epoch histograms and the
		// epoch counter must NOT record this flush: an empty (or
		// departure-only) pass is not a scheduling epoch, and counting it
		// would drag EpochSize/EpochLatencyMS toward zero.
		m.applyDeparturesLocked()
		return nil
	}
	reqs := m.reqbuf[:0]
	for _, t := range live {
		reqs = append(reqs, t.req)
	}
	m.reqbuf = reqs

	var res *core.Result
	if m.inc != nil {
		// Delta epoch: staged departures are torn down (fault-aware,
		// inside the engine) before the arrival sweep, and everything
		// already granted stays allocated.
		res = m.inc.ScheduleDeltaInto(m.st, reqs, m.depbuf, m.scratch)
		m.clearDeparturesLocked()
		m.tornSinceEpoch += res.Torn
		m.tornRoutes.Add(uint64(res.Torn))
	} else {
		res = m.eng.ScheduleInto(m.st, reqs, m.scratch)
	}
	m.lastEngine = res.Scheduler

	epoch := m.epochs.Add(1)
	established := 0
	b, _ := m.delPool.Get().(*delbatch)
	if b == nil {
		b = &delbatch{}
	}
	dels := b.d[:0]
	for i := range res.Outcomes {
		o := &res.Outcomes[i]
		if o.Granted && len(o.Ports) > 0 {
			established++ // new grants and repairs that hold channels
		}
		if t := live[i]; t.h != nil {
			m.repairVerdictLocked(t, o, epoch)
			continue
		}
		if o.Granted {
			// The outcome's Ports alias the scheduler's reusable arena; the
			// Handle owns its ports for the connection's lifetime, so copy.
			h := &Handle{m: m, src: o.Src, dst: o.Dst, ports: append([]int(nil), o.Ports...)}
			m.conns[h] = struct{}{}
			m.granted.Add(1)
			m.active.Add(1)
			if m.cfg.Trace != nil {
				m.cfg.Trace(Event{Kind: EventGrant, Src: o.Src, Dst: o.Dst, Ports: o.Ports, FailLevel: -1, Epoch: epoch})
			}
			dels = append(dels, delivery{t: live[i], r: result{h: h}})
			continue
		}
		// A scheduler without rollback retains a failed request's partial
		// allocations in the outcome; a rejected connection holds nothing,
		// so return those channels before anyone else schedules.
		if len(o.Ports) > 0 {
			m.releaseRetainedLocked(o)
		}
		m.rejected.Add(1)
		if m.cfg.Trace != nil {
			m.cfg.Trace(Event{Kind: EventReject, Src: o.Src, Dst: o.Dst, FailLevel: o.FailLevel, Epoch: epoch})
		}
		dels = append(dels, delivery{t: live[i], r: result{err: &UnroutableError{Src: o.Src, Dst: o.Dst, FailLevel: o.FailLevel}}})
	}
	b.d = dels
	latMS := float64(time.Since(live[0].enq)) / float64(time.Millisecond)
	m.epochSize.Record(float64(len(live)))
	m.epochLat.Record(latMS)
	// One route-churn sample per scheduling epoch: routes torn down since
	// the last one (releases, revocations, delta departures) plus routes
	// established by this pass. This is the reconfiguration cost the
	// incremental mode minimizes — batch mode records it too, so the two
	// are directly comparable.
	m.establishedRoutes.Add(uint64(established))
	m.routeChurn.Record(float64(m.tornSinceEpoch + established))
	m.tornSinceEpoch = 0
	// Drop ticket references from the reused buffer; the deliveries carry
	// them the rest of the way.
	for i := range live {
		live[i] = nil
	}
	m.livebuf = live[:0]
	return b
}

// deliver sends staged verdicts to their waiting Connect calls, outside
// the manager lock; the buffered resp channels make every send
// non-blocking. Entries are cleared so the pooled batch does not retain
// tickets past the epoch, then the batch returns to delPool.
func (m *Manager) deliver(b *delbatch) {
	if b == nil {
		return
	}
	for i := range b.d {
		b.d[i].t.resp <- b.d[i].r
		b.d[i] = delivery{}
	}
	b.d = b.d[:0]
	m.delPool.Put(b)
}

// newTrackedState builds the plane's link state with load tracking on:
// the manager pays one predictable branch per channel operation to keep
// the O(1) occupancy gauge and per-channel cumulative counters current —
// the signals Occupancy, Stats, and federation's least-loaded policy
// read without the scheduling lock.
func newTrackedState(tree *topology.Tree) *linkstate.State {
	st := linkstate.New(tree)
	st.TrackLoad()
	return st
}

// releaseRetainedLocked drops the partial allocations of a rejected
// request (mirrors internal/dynamic's handling of no-rollback schedulers).
func (m *Manager) releaseRetainedLocked(o *core.Outcome) {
	core.ReleaseRoute(m.st, o.Src, o.Dst, o.Ports, nil)
	o.Ports = o.Ports[:0]
}

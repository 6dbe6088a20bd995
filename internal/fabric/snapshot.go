package fabric

import (
	"time"

	"repro/internal/stats"
)

// Dist summarizes one of the manager's stats.Hist distributions. The
// window is cumulative — every sample since New — and the moments and
// extremes are exact, while the percentiles and the 8-bin histogram over
// [Min, Max] carry the bucket error of stats.Hist: never above the exact
// nearest-rank value and below it by less than stats.HistRelErr
// (about 3.1%); integer samples below 64 are exact.
type Dist struct {
	N      int     `json:"n"`
	Mean   float64 `json:"mean"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	StdDev float64 `json:"stddev"`
	P50    float64 `json:"p50"`
	P95    float64 `json:"p95"`
	P99    float64 `json:"p99"`
	Hist   []int   `json:"hist,omitempty"`
}

// HistDist summarizes a histogram snapshot — one of the manager's, or a
// merge of several planes'. Every field is O(buckets): no samples are
// retained and nothing is sorted.
func HistDist(s *stats.HistSnapshot) Dist {
	return Dist{
		N:      int(s.N),
		Mean:   s.Mean(),
		Min:    s.Min,
		Max:    s.Max,
		StdDev: s.StdDev(),
		P50:    s.Quantile(50),
		P95:    s.Quantile(95),
		P99:    s.Quantile(99),
		Hist:   s.Bins(8),
	}
}

// Stats is a consistent observability snapshot of a Manager. The counter
// invariant is Offered == Granted + Rejected + Cancelled once the queue
// is drained; Overflow counts requests turned away before ever entering
// the queue by their own deadline (backpressure timeout or context
// cancel while blocked), DrainRefused requests turned away because the
// manager was draining — both are outside that identity.
type Stats struct {
	Offered   uint64 `json:"offered"`
	Granted   uint64 `json:"granted"`
	Rejected  uint64 `json:"rejected"`
	Cancelled uint64 `json:"cancelled"`
	Released  uint64 `json:"released"`
	Overflow  uint64 `json:"overflow"`
	// DrainRefused counts Connect calls refused with ErrDraining: the
	// shutdown-race exits previously folded into Overflow, now split out
	// so backpressure and drain refusals are separately attributable.
	DrainRefused uint64 `json:"drain_refused,omitempty"`
	Epochs       uint64 `json:"epochs"`
	// Active is the number of currently held (granted, unreleased)
	// connections; QueueDepth the requests waiting for the next epoch.
	Active     int64 `json:"active"`
	QueueDepth int   `json:"queue_depth"`
	// Utilization is occupied channels / total channels on the live state.
	Utilization float64 `json:"utilization"`
	// Occupancy is the live occupied-channel count from the link state's
	// O(1) gauge (the least-loaded plane-selection signal); ChannelAllocs
	// is the cumulative number of channel allocations ever performed.
	Occupancy     int64  `json:"occupancy"`
	ChannelAllocs uint64 `json:"channel_allocs"`
	// EpochSize and EpochLatencyMS summarize every epoch since New (see
	// Dist for the percentile error); epoch latency is measured from the
	// oldest member's enqueue to its verdict, so it includes the batching
	// wait. EpochLatency is the mergeable histogram behind EpochLatencyMS,
	// from which a federation computes fleet-wide percentiles; it stays
	// out of the JSON form.
	EpochSize      Dist               `json:"epoch_size"`
	EpochLatencyMS Dist               `json:"epoch_latency_ms"`
	EpochLatency   stats.HistSnapshot `json:"-"`
	// LastEpochEngine names the scheduler that ran the most recent epoch
	// (for the parallel engine: its mode and worker count).
	LastEpochEngine string `json:"last_epoch_engine,omitempty"`
	// Fault and repair observability. Every revocation resolves into
	// exactly one of Repaired, RepairFailed (retries exhausted →
	// ErrUnroutableDegraded), or RepairAborted (shutdown or owner release
	// mid-repair); PendingRepairs is the in-flight difference.
	// FaultyChannels counts currently failed channels; DegradedCapacity
	// is the fraction of channels still in service (1.0 when healthy).
	Revoked          uint64  `json:"revoked"`
	Repaired         uint64  `json:"repaired"`
	RepairFailed     uint64  `json:"repair_failed"`
	RepairAborted    uint64  `json:"repair_aborted"`
	PendingRepairs   int64   `json:"pending_repairs"`
	FaultyChannels   int     `json:"faulty_channels"`
	DegradedCapacity float64 `json:"degraded_capacity"`
	// RepairLatencyMS and RepairDepth summarize every successful repair
	// since New: revoke-to-readmission latency and scheduling attempts
	// used (exact: attempt counts are small integers).
	RepairLatencyMS Dist `json:"repair_latency_ms"`
	RepairDepth     Dist `json:"repair_depth"`
	// Gray-failure observability (see gray.go). RepairAttempts counts
	// repair scheduling attempts (one per verdict; bounded by Revoked
	// plus the retry budget), RepairBudgetExhausted retries deferred by
	// an empty token bucket. FlapEvents counts the down-transitions flap
	// damping observed, QuarantineEvents quarantine entries, Quarantined
	// the channels currently held in quarantine (masked but no longer
	// failed-listed once healed). RepairedOnHeldTrunk counts successful
	// repairs whose new route landed beside already-held circuits at a
	// parent switch — the reuse-cost repair-placement signal.
	RepairAttempts        uint64 `json:"repair_attempts"`
	RepairBudgetExhausted uint64 `json:"repair_budget_exhausted"`
	FlapEvents            uint64 `json:"flap_events,omitempty"`
	QuarantineEvents      uint64 `json:"quarantine_events,omitempty"`
	Quarantined           int    `json:"quarantined,omitempty"`
	RepairedOnHeldTrunk   uint64 `json:"repaired_on_held_trunk,omitempty"`
	// Incremental-mode observability. Incremental reports whether the
	// manager runs delta epochs (granted routes carried forward,
	// departures swept instead of full rebuilds); ReuseCost echoes the
	// reconfiguration-cost cap (0 = first-fit). TornRoutes counts routes
	// torn down (releases, revocations, delta departures) and
	// EstablishedRoutes routes set up (grants and repairs holding
	// channels); RouteChurn summarizes their per-scheduling-epoch sum —
	// the reconfiguration cost — over every epoch since New. All three
	// are recorded in batch mode too, so modes compare directly.
	Incremental       bool   `json:"incremental,omitempty"`
	ReuseCost         int    `json:"reuse_cost,omitempty"`
	TornRoutes        uint64 `json:"torn_routes"`
	EstablishedRoutes uint64 `json:"established_routes"`
	RouteChurn        Dist   `json:"route_churn"`
}

// Stats returns a snapshot of the manager's counters, queue, epoch
// distributions, and live link utilization. The distributions are
// lock-free stats.Hist histograms, summarized outside the scheduling
// lock in O(buckets) — no copy of samples, no sort — so a snapshot never
// stalls the flusher or a client for longer than the settle step below.
//
// The call takes the scheduling lock and settles pending work first —
// parked fast-path releases are drained and staged departures applied,
// so the snapshot reflects every Release that returned before the call.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	m.drainReleasesLocked()
	m.applyDeparturesLocked()
	m.settleQuarantineLocked(time.Now())
	util := m.st.Utilization()
	lastEngine := m.lastEngine
	faulty := len(m.failed)
	quarantined := len(m.quar)
	capacity := 1.0
	if total := m.st.ChannelCount(); total > 0 {
		capacity = float64(total-m.st.FailedCount()) / float64(total)
	}
	m.mu.Unlock()
	depth := int(m.qdepth.Load())
	size := m.epochSize.Snapshot()
	lat := m.epochLat.Snapshot()
	repLat := m.repairLat.Snapshot()
	repDepth := m.repairDepth.Snapshot()
	churn := m.routeChurn.Snapshot()
	return Stats{
		Offered:        m.offered.Load(),
		Granted:        m.granted.Load(),
		Rejected:       m.rejected.Load(),
		Cancelled:      m.cancelled.Load(),
		Released:       m.released.Load(),
		Overflow:       m.overflow.Load(),
		DrainRefused:   m.drainRefused.Load(),
		Epochs:         m.epochs.Load(),
		Active:         m.active.Load(),
		QueueDepth:     depth,
		Utilization:    util,
		Occupancy:      m.st.LiveOccupancy(),
		ChannelAllocs:  m.st.TotalAllocs(),
		EpochSize:      HistDist(&size),
		EpochLatencyMS: HistDist(&lat),
		EpochLatency:   lat,

		LastEpochEngine: lastEngine,

		Revoked:          m.revoked.Load(),
		Repaired:         m.repaired.Load(),
		RepairFailed:     m.repairFailed.Load(),
		RepairAborted:    m.repairAborted.Load(),
		PendingRepairs:   m.pendingRepairs.Load(),
		FaultyChannels:   faulty,
		DegradedCapacity: capacity,
		RepairLatencyMS:  HistDist(&repLat),
		RepairDepth:      HistDist(&repDepth),

		RepairAttempts:        m.repairAttempts.Load(),
		RepairBudgetExhausted: m.repairBudgetExhausted.Load(),
		FlapEvents:            m.flapEvents.Load(),
		QuarantineEvents:      m.quarantineEvents.Load(),
		Quarantined:           quarantined,
		RepairedOnHeldTrunk:   m.repairedOnHeldTrunk.Load(),

		Incremental:       m.inc != nil,
		ReuseCost:         m.reuseCost,
		TornRoutes:        m.tornRoutes.Load(),
		EstablishedRoutes: m.establishedRoutes.Load(),
		RouteChurn:        HistDist(&churn),
	}
}

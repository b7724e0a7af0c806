package host

import (
	"errors"
	"sync"
)

// ErrSubmitterClosed is the sentinel returned by Submit, Flush and a
// repeated Close once the submitter has been closed.
var ErrSubmitterClosed = errors.New("host: submitter closed")

// SubmitterConfig tunes the adaptive batcher. Zero fields take the
// documented defaults.
type SubmitterConfig struct {
	// MaxBatch flushes the pending batch as soon as it holds this many
	// operations across its transactions (default 64). It parameterizes
	// the default FIFOScheduler; an explicit Scheduler brings its own
	// bounds and ignores it.
	MaxBatch int
	// MaxDelaySeconds bounds, on the modeled clock, how long the oldest
	// pending transaction may wait before the batch flushes (default
	// 300 µs — about one transfer handshake). Like MaxBatch it
	// parameterizes the default FIFOScheduler only.
	MaxDelaySeconds float64
	// Queue is the bounded admission queue: Submit blocks once this
	// many accepted transactions await batching (default 4 × MaxBatch).
	// The bound caps real memory, not the modeled arrival process — a
	// transaction admitted late still carries its open-loop arrival
	// stamp, so the backpressure shows up as modeled queueing delay.
	Queue int
	// Scheduler is the batch-formation policy (nil = a FIFOScheduler
	// over MaxBatch/MaxDelaySeconds, the historical single pending
	// lane). Schedulers are stateful: one instance per submitter. A
	// lane-segregating scheduler without an explicit classifier is
	// bound to the store's LaneOf at construction.
	Scheduler Scheduler
}

func (c *SubmitterConfig) fill() {
	if c.MaxBatch <= 0 {
		c.MaxBatch = defaultMaxBatch
	}
	if c.MaxDelaySeconds <= 0 {
		c.MaxDelaySeconds = defaultMaxDelaySeconds
	}
	if c.Queue <= 0 {
		c.Queue = 4 * c.MaxBatch
	}
}

// Future resolves one submitted Txn: its per-op results and one modeled
// commit latency for the transaction as a unit (batch completion on the
// fleet clock minus the transaction's arrival, i.e. queue wait + batch
// wall clock, in TxnResult.LatencySeconds).
type Future struct {
	done chan struct{}
	res  TxnResult
}

// Wait blocks until the transaction's batch has been applied and
// returns its TxnResult.
func (f *Future) Wait() TxnResult {
	<-f.done
	return f.res
}

// FlushReason says why a batch left the submitter.
type FlushReason int

// Flush reasons.
const (
	// FlushSize: the batch reached MaxBatch ops.
	FlushSize FlushReason = iota
	// FlushDelay: a later arrival pushed the oldest pending transaction
	// past MaxDelaySeconds on the modeled clock.
	FlushDelay
	// FlushDrain: an explicit Flush or Close drained the remainder.
	FlushDrain
)

// SubmitterStats counts the batcher's decisions. Valid snapshot any
// time; totals are final once Close has returned.
type SubmitterStats struct {
	// Submitted ops batched and applied, across Txns transactions, in
	// Batches applied batches.
	Submitted, Txns, Batches int
	// SizeFlushes, DelayFlushes and DrainFlushes split Batches by
	// FlushReason.
	SizeFlushes, DelayFlushes, DrainFlushes int
	// MaxBatchOps is the largest batch applied, in ops.
	MaxBatchOps int
	// ConfinedBatches and CoordinatedBatches split Batches by lane
	// under a lane-segregating scheduler (both zero under FIFO, whose
	// batches are unlaned).
	ConfinedBatches, CoordinatedBatches int
	// ApplyTxnsStats accumulates every applied batch's window stats: the
	// coordinated-commit phase split on the modeled clock (all zero for a
	// workload that never coordinates), the guard-aborted transactions,
	// and the REAL machine wall-clock per host-side phase — simulator
	// speed, not modeled time, which varies run to run, so every
	// byte-identity comparison of serving results must zero it first
	// (see ServeResult.ZeroHostClock).
	ApplyTxnsStats
}

// ZeroHostClock clears the real-time host phase counters so two runs'
// stats can be compared for byte identity. Every modeled-clock field
// stays untouched.
func (s *SubmitterStats) ZeroHostClock() {
	s.HostClassifySeconds, s.HostRouteSeconds = 0, 0
	s.HostShadowSeconds, s.HostCompileSeconds = 0, 0
}

// submitMsg is one queue entry: a transaction with its future, or a
// flush barrier (txn future nil, barrier non-nil).
type submitMsg struct {
	txn     Txn
	arrival float64
	fut     *Future
	barrier chan struct{}
}

// Submitter is a goroutine-safe serving front-end over a
// PartitionedMap: many clients Submit transactions — ordered groups of
// Ops over arbitrary keys; a single op is just a 1-op Txn — and a
// pluggable Scheduler batches them (the default FIFOScheduler flushes
// at MaxBatch ops or once the oldest pending transaction has waited
// MaxDelaySeconds on the modeled clock); the submitter applies each
// emitted batch and resolves each transaction's Future with its per-op
// results and one modeled commit latency.
//
// Arrival times are modeled seconds relative to the submitter's
// creation (the open-loop traffic clock); the underlying fleet clock
// is advanced so a batch never starts before its flush time. Flush
// decisions are a pure function of the transaction stream (order,
// arrivals, op counts, the scheduler's bounds), never of real time, so
// a deterministic stream yields a deterministic schedule — a
// transaction with no successor traffic stays pending until Flush or
// Close.
//
// The PartitionedMap must not be used directly while the submitter is
// open; one flusher goroutine owns it (and drives the scheduler, so
// Scheduler implementations need no locking).
type Submitter struct {
	pm    *PartitionedMap
	cfg   SubmitterConfig
	sched Scheduler
	base  float64 // fleet clock at creation; arrivals are offsets from it

	mu     sync.RWMutex // guards closed vs. channel send
	closed bool

	ch   chan submitMsg
	done chan struct{}

	statsMu sync.Mutex
	stats   SubmitterStats
	err     error // first ApplyTxns error

	// txnScratch is flush's reusable batch slice; owned by the single
	// flusher goroutine, and ApplyTxns does not retain its argument.
	txnScratch []Txn
}

// NewSubmitter starts the serving front-end over pm. Close it to drain
// pending transactions and stop the flusher.
func NewSubmitter(pm *PartitionedMap, cfg SubmitterConfig) *Submitter {
	cfg.fill()
	sched := cfg.Scheduler
	if sched == nil {
		sched = NewFIFOScheduler(cfg.MaxBatch, cfg.MaxDelaySeconds)
	}
	if lc, ok := sched.(laneClassified); ok {
		lc.bindClassifier(pm.LaneOf)
	}
	s := &Submitter{
		pm:    pm,
		cfg:   cfg,
		sched: sched,
		base:  pm.fleet.Stats().WallSeconds,
		ch:    make(chan submitMsg, cfg.Queue),
		done:  make(chan struct{}),
	}
	go s.run()
	return s
}

// Submit enqueues one transaction that arrived at the given modeled
// time (seconds since the submitter was created) and returns its
// Future. It blocks while the admission queue is full (backpressure)
// and is safe from many goroutines. After Close it returns
// ErrSubmitterClosed instead of panicking on the closed queue; empty
// transactions are rejected.
func (s *Submitter) Submit(txn Txn, arrival float64) (*Future, error) {
	if len(txn.Ops) == 0 {
		return nil, errors.New("host: empty transaction")
	}
	f := &Future{done: make(chan struct{})}
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return nil, ErrSubmitterClosed
	}
	s.ch <- submitMsg{txn: txn, arrival: arrival, fut: f}
	s.mu.RUnlock()
	return f, nil
}

// Flush forces the pending batch out (reason FlushDrain) and returns
// once it has been applied. A no-op when nothing is pending; after
// Close it returns ErrSubmitterClosed.
func (s *Submitter) Flush() error {
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return ErrSubmitterClosed
	}
	b := make(chan struct{})
	s.ch <- submitMsg{barrier: b}
	s.mu.RUnlock()
	<-b
	return nil
}

// Close drains every pending transaction, stops the flusher and
// returns the first batch-application error (nil normally). A second
// Close returns ErrSubmitterClosed instead of panicking on the closed
// queue.
func (s *Submitter) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.done
		return ErrSubmitterClosed
	}
	s.closed = true
	close(s.ch)
	s.mu.Unlock()
	<-s.done
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	return s.err
}

// Stats snapshots the batching counters.
func (s *Submitter) Stats() SubmitterStats {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	return s.stats
}

// run is the flusher: it owns the PartitionedMap (a Fleet is not safe
// for concurrent rounds) and drives the scheduler — every queue
// message becomes an Admit or Drain, and the batches the policy emits
// are applied in order.
func (s *Submitter) run() {
	defer close(s.done)
	for msg := range s.ch {
		if msg.barrier != nil {
			s.flushAll(s.sched.Drain())
			close(msg.barrier)
			continue
		}
		s.flushAll(s.sched.Admit(SchedTxn{Txn: msg.txn, Arrival: msg.arrival, fut: msg.fut}))
	}
	s.flushAll(s.sched.Drain())
}

// flushAll applies the scheduler's emitted batches in flush order.
func (s *Submitter) flushAll(batches []SchedBatch) {
	for _, b := range batches {
		if len(b.Txns) > 0 {
			s.flush(b)
		}
	}
}

// flush applies one batch at its modeled flush time (clamped to the
// newest arrival it contains — transactions cannot be scattered before
// they arrive), resolves the futures, and feeds the window's modeled
// cost back to the scheduler. Batch completion is the fleet wall clock
// after the window's rounds, which counts the batch's gather as
// draining immediately; per-transaction latency is completion minus
// arrival.
func (s *Submitter) flush(b SchedBatch) {
	at := b.At
	txns := s.txnScratch[:0]
	ops := 0
	for _, m := range b.Txns {
		txns = append(txns, m.Txn)
		ops += len(m.Txn.Ops)
		if m.Arrival > at {
			at = m.Arrival
		}
	}
	s.txnScratch = txns
	s.pm.fleet.AdvanceTo(s.base + at)
	res, err := s.pm.ApplyTxns(txns)
	complete := s.pm.fleet.Stats().WallSeconds
	for i, m := range b.Txns {
		if err != nil {
			m.fut.res = TxnResult{Err: err, Results: make([]OpResult, len(m.Txn.Ops))}
		} else {
			m.fut.res = res[i]
		}
		m.fut.res.LatencySeconds = complete - (s.base + m.Arrival)
		close(m.fut.done)
	}
	if err == nil {
		// Snapshot the window's cost split before the rebalancer can run
		// placement rounds over it; the feedback must describe this batch
		// alone. An errored apply leaves the Batch* fields on the
		// previous window, so it feeds nothing back.
		s.sched.Observe(b, BatchFeedback{
			Ops:              ops,
			KernelSeconds:    s.pm.BatchLaunchSeconds,
			HandshakeSeconds: s.pm.BatchTransferSeconds,
			WallSeconds:      s.pm.BatchSeconds,
		})
	}

	// Load stats just reached the rebalancer (ApplyTxns observes every
	// routed batch); let it act in the quiescent window between batches,
	// where its migration and promotion rounds delay only later traffic.
	// Under a lane scheduler it thereby sees per-lane batches — each
	// homogeneous flush is one observation.
	var rebErr error
	if err == nil {
		_, rebErr = s.pm.MaybeRebalance()
	}

	s.statsMu.Lock()
	s.stats.Submitted += ops
	s.stats.Txns += len(b.Txns)
	s.stats.Batches++
	if err == nil {
		s.stats.add(s.pm.BatchPhases)
	}
	if ops > s.stats.MaxBatchOps {
		s.stats.MaxBatchOps = ops
	}
	switch b.Reason {
	case FlushSize:
		s.stats.SizeFlushes++
	case FlushDelay:
		s.stats.DelayFlushes++
	default:
		s.stats.DrainFlushes++
	}
	switch b.Lane {
	case LaneConfined:
		s.stats.ConfinedBatches++
	case LaneCoordinated:
		s.stats.CoordinatedBatches++
	}
	if err == nil {
		err = rebErr
	}
	if err != nil && s.err == nil {
		s.err = err
	}
	s.statsMu.Unlock()
}

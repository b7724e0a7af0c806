package main

import (
	"fmt"
	"sort"

	"pimstm/internal/core"
	"pimstm/internal/host"
	"pimstm/internal/workload"
)

// serveSpec is one serving scenario as plain data, so the ledger can
// record every knob. Real clock: a closed loop — one producer goroutine
// submits the whole trace and blocks on the Submitter's bounded queue
// (4 × MaxBatch), so the store is never offered more than it drains.
// Modeled clock: an open loop — every transaction carries a Poisson
// arrival stamp on the modeled clock and its latency is batch
// completion minus that stamp. The trace is generated before the run,
// so the generator is never late (lateness 0 by construction).
type serveSpec struct {
	DPUs     int `json:"dpus"`
	Tasklets int `json:"tasklets"`
	// Sample > 0 selects sampled-fleet mode.
	Sample   int    `json:"sample,omitempty"`
	Buckets  int    `json:"buckets,omitempty"`
	Capacity int    `json:"capacity,omitempty"`
	STM      string `json:"stm"`
	// Rebalance "split" attaches a Directory and the split-armed
	// KernelBoundServingRebalance(3) control plane; "" serves on the
	// static hash.
	Rebalance string `json:"rebalance,omitempty"`
	// Scheduler is "fifo" or "lane" (coordinated lane at twice the
	// confined lane's bounds, as the sweep drivers configure it).
	Scheduler       string  `json:"scheduler"`
	MaxBatch        int     `json:"max_batch_ops"`
	MaxDelaySeconds float64 `json:"max_delay_s"`

	// App is "kv" (host.GenerateTraffic behind workload.KV) or
	// "neworder".
	App  string `json:"app"`
	Txns int    `json:"txns"`
	// KV shape.
	TxnSize  int     `json:"txn_size,omitempty"`
	CrossDPU float64 `json:"cross_dpu,omitempty"`
	ZipfS    float64 `json:"zipf_s"`
	ReadPct  int     `json:"read_pct,omitempty"`
	Keyspace int     `json:"keyspace,omitempty"`
	// NewOrder shape.
	Districts    int    `json:"districts,omitempty"`
	Items        int    `json:"items,omitempty"`
	InitialStock uint64 `json:"initial_stock,omitempty"`

	// Rate is the nominal open-loop arrival rate in transactions per
	// modeled second; Ladder the fixed three rates of the SLO search,
	// each served on a LadderTxns-long trace.
	Rate       float64   `json:"rate_txn_per_s"`
	Ladder     []float64 `json:"ladder_txn_per_s,omitempty"`
	LadderTxns int       `json:"ladder_txns,omitempty"`
	// Check runs the workload's invariant checker (needs every
	// TxnResult retained); without it only per-transaction errors,
	// aborts and read misses are checked.
	Check bool `json:"check"`
}

// sloSeconds is the latency limit of the SLO ladder: a rate passes when
// p99 commit latency stays within it over the whole trace and over the
// last tenth of it (a growing backlog fails the second).
const sloSeconds = 5e-3

func (s serveSpec) workload(seed uint64, txns int, rate float64) (workload.Workload, error) {
	switch s.App {
	case "kv":
		return workload.NewKV(host.TrafficConfig{
			Ops: txns, Rate: rate, ReadPct: s.ReadPct, Keyspace: s.Keyspace,
			ZipfS: s.ZipfS, Seed: seed, TxnSize: s.TxnSize, CrossDPU: s.CrossDPU, DPUs: s.DPUs,
		}), nil
	case "neworder":
		return workload.NewNewOrder(workload.NewOrderConfig{
			Txns: txns, Rate: rate, Seed: seed, Districts: s.Districts,
			Items: s.Items, InitialStock: s.InitialStock, ItemZipfS: s.ZipfS,
		})
	}
	return nil, fmt.Errorf("unknown app %q", s.App)
}

// mapConfig builds a fresh store config (a Directory is stateful, so
// every run gets its own).
func (s serveSpec) mapConfig() (host.PartitionedMapConfig, *host.RebalancerConfig, error) {
	alg, err := core.ParseAlgorithm(s.STM)
	if err != nil {
		return host.PartitionedMapConfig{}, nil, err
	}
	cfg := host.PartitionedMapConfig{
		DPUs: s.DPUs, Tasklets: s.Tasklets, Sample: s.Sample,
		Buckets: s.Buckets, Capacity: s.Capacity,
		STM: core.Config{Algorithm: alg}, Mode: host.Pipelined,
	}
	switch s.Rebalance {
	case "":
		return cfg, nil, nil
	case "split":
		reb := host.KernelBoundServingRebalance(3)
		reb.ReplicateMaxWriteShare = 1e-9
		reb.SplitMinAddShare = 0.5
		cfg.Placement = host.NewDirectory(s.DPUs)
		return cfg, &reb, nil
	}
	return cfg, nil, fmt.Errorf("unknown rebalance policy %q", s.Rebalance)
}

func (s serveSpec) lanes() host.LaneSchedulerConfig {
	return host.LaneSchedulerConfig{
		Confined:    host.LaneConfig{MaxBatch: s.MaxBatch, MaxDelaySeconds: s.MaxDelaySeconds},
		Coordinated: host.LaneConfig{MaxBatch: 2 * s.MaxBatch, MaxDelaySeconds: 2 * s.MaxDelaySeconds},
	}
}

// hostServeConfig is the same scenario as host.Serve takes it — the
// path users run, which the tests hold serveOnce equal to.
func (s serveSpec) hostServeConfig(trace []host.TimedTxn, preload []host.Op) (host.ServeConfig, error) {
	mc, reb, err := s.mapConfig()
	if err != nil {
		return host.ServeConfig{}, err
	}
	cfg := host.ServeConfig{
		Map:       mc,
		Submit:    host.SubmitterConfig{MaxBatch: s.MaxBatch, MaxDelaySeconds: s.MaxDelaySeconds},
		Rebalance: reb, Trace: trace, Preload: preload,
	}
	if s.Scheduler == "lane" {
		lanes := s.lanes()
		cfg.Scheduler = func() host.Scheduler { return host.NewLaneScheduler(lanes) }
	}
	return cfg, nil
}

// served is the outcome of one serveOnce.
type served struct {
	res host.ServeResult
	// lats are the per-transaction modeled commit latencies in trace
	// (arrival) order.
	lats    []float64
	fleet   host.FleetStats // whole-store modeled totals, preload included
	results []host.TxnResult
	store   *host.PartitionedMap
}

// serveOnce serves one trace through the public API of every layer —
// NewPartitionedMap, ApplyBatch, NewRebalancer, NewSubmitter, Submit,
// Close, Future.Wait — timing each call from outside. It is host.Serve
// step for step; TestServeOnceMatchesHostServe keeps it so.
func (c *child) serveOnce(s serveSpec, trace []host.TimedTxn, preload []host.Op, req int) (served, error) {
	var out served
	mc, rebCfg, err := s.mapConfig()
	if err != nil {
		return out, err
	}
	if mc.Buckets == 0 {
		mc.Buckets = 256
	}
	if mc.Capacity == 0 {
		mc.Capacity = 4 * len(preload)
	}
	var pm *host.PartitionedMap
	c.timed("partmap.new", req, func() { pm, err = host.NewPartitionedMap(mc) })
	if err != nil {
		return out, err
	}
	c.timed("partmap.preload", req, func() { _, err = pm.ApplyBatch(preload) })
	if err != nil {
		return out, err
	}
	base := pm.Stats().WallSeconds
	coordBase := pm.TxnsCoordinated

	var reb *host.Rebalancer
	if rebCfg != nil {
		if reb, err = host.NewRebalancer(pm, *rebCfg); err != nil {
			return out, err
		}
	}

	// The scheduler is built here, with the store's classifier bound
	// explicitly — exactly what NewSubmitter binds by itself — so the
	// traced run can wrap it.
	var sched host.Scheduler
	if s.Scheduler == "lane" {
		lanes := s.lanes()
		lanes.Classify = pm.LaneOf
		sched = host.NewLaneScheduler(lanes)
	} else {
		sched = host.NewFIFOScheduler(s.MaxBatch, s.MaxDelaySeconds)
	}
	var ts *tracedScheduler
	servePhase, serveStart := -1, int64(0)
	if c.tr != nil {
		serveStart = c.tr.now()
		servePhase = c.tr.begin("submitter.serve", c.root, req, serveStart)
		ts = &tracedScheduler{inner: sched, tr: c.tr, parent: servePhase, open: -1}
		sched = ts
	}
	sub := host.NewSubmitter(pm, host.SubmitterConfig{
		MaxBatch: s.MaxBatch, MaxDelaySeconds: s.MaxDelaySeconds, Scheduler: sched,
	})
	futs := make([]*host.Future, len(trace))
	c.record(span{Name: "submitter.submit", Parent: servePhase, Req: req, Wait: true}, func() {
		for i, t := range trace {
			if futs[i], err = sub.Submit(t.Txn, t.Arrival); err != nil {
				return
			}
		}
	})
	if err != nil {
		return out, err
	}
	c.record(span{Name: "submitter.close", Parent: servePhase, Req: req, Wait: true}, func() { err = sub.Close() })
	if err != nil {
		return out, err
	}
	if ts != nil {
		ts.finish()
		serveEnd := c.tr.now()
		c.tr.end(servePhase, serveEnd)
		c.res.Real["scheduler.admit_s"] += float64(ts.admitNs) / 1e9
		c.res.Real["partmap.batch_apply_s"] += float64(ts.applyNs) / 1e9
		c.res.Real["submitter.serve_s"] += float64(serveEnd-serveStart) / 1e9
	}

	res := host.ServeResult{Txns: len(trace), Stats: sub.Stats(), SimulatedDPUs: pm.SimulatedDPUs()}
	res.SplitReconciles = pm.SplitReconciles
	res.HostWorkers = pm.HostWorkers()
	res.HostSeconds = res.Stats.HostClassifySeconds + res.Stats.HostRouteSeconds +
		res.Stats.HostShadowSeconds + res.Stats.HostCompileSeconds
	res.Ops = res.Stats.Submitted
	res.Batches = res.Stats.Batches
	res.CoordinatedTxns = pm.TxnsCoordinated - coordBase
	if reb != nil {
		res.Rebalance = reb.Stats()
	}
	out.lats = make([]float64, len(futs))
	if s.Check {
		out.results = make([]host.TxnResult, 0, len(futs))
	}
	misses := 0
	c.timed("submitter.wait", req, func() {
		for i, f := range futs {
			r := f.Wait()
			if r.Err != nil {
				res.Errors++
			} else if !r.Committed {
				res.Aborted++
			}
			for j, op := range trace[i].Txn.Ops {
				if op.Kind == host.OpGet && r.Committed && j < len(r.Results) && !r.Results[j].OK {
					misses++
				}
			}
			out.lats[i] = r.LatencySeconds
			if s.Check {
				out.results = append(out.results, r)
			}
		}
	})
	if misses > 0 {
		// Both apps preload every key a read can name.
		c.fail("%d committed reads missed a preloaded key", misses)
	}
	// host.Serve sorts the latencies for its percentiles; users pay it.
	c.timed("serve.percentiles", req, func() {
		sorted := append([]float64(nil), out.lats...)
		sort.Float64s(sorted)
		res.P50 = quantileSorted(sorted, 0.50)
		res.P95 = quantileSorted(sorted, 0.95)
		res.P99 = quantileSorted(sorted, 0.99)
	})
	out.fleet = pm.Stats()
	res.MakespanSeconds = out.fleet.WallSeconds - base
	if res.MakespanSeconds > 0 {
		res.OpsPerSecond = float64(res.Ops) / res.MakespanSeconds
	}
	if res.Batches > 0 {
		res.MeanBatchOps = float64(res.Ops) / float64(res.Batches)
	}
	out.res = res
	out.store = pm
	return out, nil
}

// tracedScheduler observes the per-batch window through the public
// Scheduler interface: it times every Admit and Drain of the policy it
// wraps, opens a partmap.batch_apply span when the policy emits a batch
// and closes it when the Submitter reports the batch applied (Observe).
// What the Submitter does between an Observe and the next emitted batch
// (rebalancer step, stats, queue receive) stays the serve phase's self
// time — except when one Admit emits several batches, whose windows
// then follow each other directly.
//
// Every Admit is timed, at two clock reads per transaction. They are
// most of the tracing overhead on scale_sampled (3 M admits of about
// 65 ns each: 7-10 % of the run) and about half of scheduler.admit_s
// there. Timing a sample of the calls instead is a trap: size flushes
// come every MaxBatch ops, a power of two, and the first Admit after a
// flush is the expensive one (cold caches, a fresh pending slice), so a
// regular stride times either all of those or none.
type tracedScheduler struct {
	inner  host.Scheduler
	tr     *tracer
	parent int

	admitNs, applyNs int64
	admits           int
	firstAdmit       int64
	lastAdmit        int64

	// open is the open batch span, -1 when none, and openAt its start.
	// The start is kept here because the producer appends to the
	// tracer's spans while the flusher goroutine runs these methods.
	open    int
	openAt  int64
	pending int // batches emitted and not yet observed
	batch   int
}

func (s *tracedScheduler) Name() string { return s.inner.Name() }

func (s *tracedScheduler) Admit(t host.SchedTxn) []host.SchedBatch {
	t0 := s.tr.now()
	out := s.inner.Admit(t)
	t1 := s.tr.now()
	if s.admits == 0 {
		s.firstAdmit = t0
	}
	s.admits++
	s.admitNs += t1 - t0
	s.lastAdmit = t1
	s.emitted(out, t1)
	return out
}

func (s *tracedScheduler) Drain() []host.SchedBatch {
	t0 := s.tr.now()
	out := s.inner.Drain()
	t1 := s.tr.now()
	s.admitNs += t1 - t0
	s.lastAdmit = t1
	s.emitted(out, t1)
	return out
}

func (s *tracedScheduler) emitted(out []host.SchedBatch, at int64) {
	for _, b := range out {
		if len(b.Txns) > 0 { // the Submitter skips empty batches
			s.pending++
		}
	}
	if s.pending > 0 && s.open < 0 {
		s.openBatch(at)
	}
}

func (s *tracedScheduler) openBatch(at int64) {
	s.open, s.openAt = s.tr.begin("partmap.batch_apply", s.parent, s.batch, at), at
}

func (s *tracedScheduler) Observe(b host.SchedBatch, fb host.BatchFeedback) {
	at := s.tr.now()
	if s.open >= 0 {
		s.tr.end(s.open, at)
		s.applyNs += at - s.openAt
		s.open = -1
		s.batch++
		s.pending--
	}
	s.inner.Observe(b, fb)
	if s.pending > 0 {
		s.openBatch(s.tr.now())
	}
}

// finish records the aggregate admit span once the Submitter has
// closed.
func (s *tracedScheduler) finish() {
	if s.admits > 0 {
		s.tr.add(span{
			Name: "scheduler.admit", StartNs: s.firstAdmit, EndNs: s.lastAdmit,
			Parent: s.parent, BusyNs: s.admitNs, Calls: s.admits,
		})
	}
}

// runServe is the run function of the serving workloads: one nominal-
// rate run, its checks, and the layer counts.
func runServe(c *child, def workloadDef) error {
	s := *def.Serve
	w, err := s.workload(c.seed, s.Txns, s.Rate)
	if err != nil {
		return err
	}
	var trace []host.TimedTxn
	var preload []host.Op
	c.timed("traffic.generate", 0, func() {
		preload = w.Preload()
		trace, err = w.Generate()
	})
	if err != nil {
		return err
	}
	out, err := c.serveOnce(s, trace, preload, 0)
	if err != nil {
		return err
	}
	c.checkServed(w, s, out, 0)
	c.recordServed(out)
	c.res.Work = int64(out.res.Ops)
	c.res.WorkUnit = "served ops"
	return nil
}

// checkServed counts the run's checked outcomes: every transaction
// (errored ones fail), plus the invariant check when the spec asks for
// it. Guard aborts are outcomes, not failures.
func (c *child) checkServed(w workload.Workload, s serveSpec, out served, req int) {
	c.res.Attempted += int64(out.res.Txns)
	if n := out.res.Errors; n > 0 {
		c.failN(n, "%d of %d transactions resolved with an error", n, out.res.Txns)
	}
	if out.res.Stats.GuardAborts != out.res.Aborted {
		c.res.Attempted++
		c.fail("guard-abort accounting drifted: stats %d, outcomes %d", out.res.Stats.GuardAborts, out.res.Aborted)
	}
	if s.Check {
		c.res.Attempted++
		c.timed("workload.check", req, func() {
			if err := w.Check(out.store.Get, out.results); err != nil {
				c.fail("invariant: %v", err)
			}
		})
	}
}

// recordServed adds one served run to the modeled block.
func (c *child) recordServed(out served) {
	m, r, st := c.res.Modeled, out.res, out.res.Stats
	c.res.LatencySamples += len(out.lats)
	m["modeled_p50_s"], m["modeled_p99_s"] = r.P50, r.P99
	m["modeled_tput"] = r.OpsPerSecond
	m["traffic.txns"] += float64(r.Txns)
	m["fleet.rounds"] += float64(out.fleet.Rounds)
	m["fleet.launch_modeled_s"] += out.fleet.LaunchSeconds
	m["fleet.transfer_modeled_s"] += out.fleet.TransferSeconds
	m["fleet.quiescent_modeled_s"] += out.fleet.QuiescentSeconds
	if out.fleet.WallSeconds > 0 {
		m["fleet.pipeline_gain"] = out.fleet.LockstepSeconds / out.fleet.WallSeconds
	}
	m["partmap.batches"] += float64(r.Batches)
	m["partmap.txns_coordinated"] += float64(r.CoordinatedTxns)
	m["partmap.coordinated_frac"] = m["partmap.txns_coordinated"] / m["traffic.txns"]
	m["partmap.gather_modeled_s"] += st.GatherSeconds
	m["partmap.apply_modeled_s"] += st.ApplySeconds
	m["partmap.writeback_modeled_s"] += st.WritebackSeconds
	m["partmap.guard_aborts"] += float64(st.GuardAborts)
	m["partmap.split_reconciles"] += float64(r.SplitReconciles)
	m["scheduler.admits"] += float64(r.Txns)
	m["submitter.size_flushes"] += float64(st.SizeFlushes)
	m["submitter.delay_flushes"] += float64(st.DelayFlushes)
	m["submitter.drain_flushes"] += float64(st.DrainFlushes)
	m["submitter.mean_batch_ops"] = r.MeanBatchOps
	m["submitter.confined_batches"] += float64(st.ConfinedBatches)
	m["submitter.coordinated_batches"] += float64(st.CoordinatedBatches)
	m["rebalancer.windows_evaluated"] += float64(r.Rebalance.WindowsEvaluated)
	m["rebalancer.windows_acted"] += float64(r.Rebalance.WindowsActed)
	m["rebalancer.keys_migrated"] += float64(r.Rebalance.KeysMigrated)
	m["rebalancer.keys_replicated"] += float64(r.Rebalance.KeysReplicated)
	m["rebalancer.keys_split"] += float64(r.Rebalance.KeysSplit)
	c.fold(out.lats...)
	c.fold(float64(r.Aborted), float64(r.Errors), r.MakespanSeconds)

	rl := c.res.Real
	rl["partmap.host_classify_s"] += st.HostClassifySeconds
	rl["partmap.host_route_s"] += st.HostRouteSeconds
	rl["partmap.host_shadow_s"] += st.HostShadowSeconds
	rl["partmap.host_compile_s"] += st.HostCompileSeconds
	if c.tr != nil {
		rl["partmap.kernel_round_s"] = rl["partmap.batch_apply_s"] - rl["partmap.host_classify_s"] -
			rl["partmap.host_route_s"] - rl["partmap.host_shadow_s"] - rl["partmap.host_compile_s"]
		rl["submitter.self_s"] = rl["submitter.serve_s"] - rl["partmap.batch_apply_s"] - rl["scheduler.admit_s"]
	}
}

// runLadder serves the workload's three fixed rates on a shorter trace
// and reports, per rate, p99 over all transactions and over the last
// tenth. modeled_slo_rate is the highest rate that meets the limit on
// both; 0 when none does.
func (c *child) runLadder(def workloadDef) error {
	s := *def.Serve
	s.Check = false
	txns := s.LadderTxns
	best := 0.0
	for _, rate := range s.Ladder {
		w, err := s.workload(c.seed, txns, rate)
		if err != nil {
			return err
		}
		trace, err := w.Generate()
		if err != nil {
			return err
		}
		out, err := c.serveOnce(s, trace, w.Preload(), 0)
		if err != nil {
			return err
		}
		c.res.Attempted++
		if out.res.Errors > 0 {
			c.fail("ladder rate %g: %d transactions errored", rate, out.res.Errors)
		}
		tail := out.lats[len(out.lats)-len(out.lats)/10:]
		step := ladderStep{
			Rate: rate, Txns: txns,
			P99All: out.res.P99, P99Tail: host.Quantile(tail, 0.99),
		}
		step.MeetsSLO = step.P99All <= sloSeconds && step.P99Tail <= sloSeconds
		if step.MeetsSLO && rate > best {
			best = rate
		}
		c.res.Ladder = append(c.res.Ladder, step)
	}
	c.res.Modeled["modeled_slo_rate"] = best
	return nil
}

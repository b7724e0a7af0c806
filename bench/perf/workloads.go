package main

import (
	"fmt"

	"pimstm/internal/core"
	"pimstm/internal/dpu"
	"pimstm/internal/harness"
	"pimstm/internal/host"
	"pimstm/internal/workloads"
)

// workloadDef is one named workload of the ledger. Exactly one of stm,
// serve and sweep is set; the struct is recorded verbatim in the ledger,
// so every knob that shapes the inputs is in the row.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`

	STM   *stmSpec   `json:"stm,omitempty"`
	Serve *serveSpec `json:"serve,omitempty"`
	Sweep *sweepSpec `json:"sweep,omitempty"`

	run func(c *child, def workloadDef) error
}

// stmSpec is a set of single-DPU STM cells: workload × algorithm ×
// tasklet count × metadata tier, each run on a fresh DPU through
// dpu.New / core.New / Workload.Setup / DPU.Run / Workload.Verify.
type stmSpec struct {
	Workloads  []string `json:"workloads"`
	Algorithms []string `json:"algorithms"`
	Tasklets   []int    `json:"tasklets"`
	Tiers      []string `json:"metadata_tiers"`
	// Scale multiplies the paper's per-tasklet operation counts.
	Scale    float64 `json:"scale"`
	MRAMSize int     `json:"mram_bytes"`
	// Excluded records cells left out on purpose, with the reason.
	Excluded string `json:"excluded,omitempty"`
}

// sweepSpec is a grid of tiny serving cells, each on a fresh store, as
// the repo's sweep drivers run them.
type sweepSpec struct {
	Base       serveSpec  `json:"cell"`
	Algorithms []string   `json:"algorithms"`
	Shapes     []txnShape `json:"shapes"`
	Zipfs      []float64  `json:"zipf_s"`
	// MaxCells truncates the grid (smoke sizes only).
	MaxCells int `json:"max_cells,omitempty"`
}

type txnShape struct {
	TxnSize  int     `json:"txn_size"`
	CrossDPU float64 `json:"cross_dpu"`
}

// allAlgorithms names the seven STM designs in the paper's figure
// order.
func allAlgorithms() []string {
	out := make([]string, len(core.Algorithms))
	for i, a := range core.Algorithms {
		out[i] = a.String()
	}
	return out
}

// Serving workloads batch at 256 ops / 1 ms (coordinated lane 512 ops /
// 2 ms). The repo's historical 64 ops / 300 µs default has no stable
// operating point on 8 DPUs between roughly 3.3 k ops/s and saturation:
// delay-formed batches arrive every 300 µs while a round costs about
// 600 µs, so every committed serve/txnserve cell sits in growing
// backlog. bench/README.md records this; it is not fixed here.
const (
	serveMaxBatch = 256
	serveMaxDelay = 1e-3
)

// workloadTable returns the seven workloads at full or smoke size.
// Sizes give roughly 3 s per repetition on 2 × 2.1 GHz cores; smoke
// sizes are about 2 % of that, for the tests and `run.sh -smoke`.
func workloadTable(smoke bool) []workloadDef {
	pick := func(full, small int) int {
		if smoke {
			return small
		}
		return full
	}
	scale := func(full float64) float64 {
		if smoke {
			return 0.02
		}
		return full
	}
	algs := allAlgorithms()
	if smoke {
		algs = []string{"NOrec", "VR CTLWB"}
	}
	return []workloadDef{
		{
			Name: "stm_readmostly",
			Why:  "dpu scheduling and core read paths do all the work, host none; 1 tasklet is where a run-ahead yield skips every handoff, 11 where it rarely can",
			STM: &stmSpec{
				Workloads: []string{"ArrayBench A", "Linked-List LC", "KMeans LC"}, Algorithms: algs,
				Tasklets: []int{1, 11}, Tiers: []string{"MRAM"},
				Scale: scale(0.6), MRAMSize: 8 << 20,
			},
			run: runSTM,
		},
		{
			Name: "stm_contended",
			Why:  "the same two layers used the other way: writes, aborts, retries, lock-blocked tasklets and the paper's WRAM-vs-MRAM tier axis; a read speed-up that slows the abort path shows here",
			STM: &stmSpec{
				Workloads: []string{"ArrayBench B", "Linked-List HC"}, Algorithms: algs,
				Tasklets: []int{11}, Tiers: []string{"MRAM", "WRAM"},
				Scale: scale(0.35), MRAMSize: 8 << 20,
				Excluded: "KMeans HC x VR CTLWB x 11 tasklets at scale 1.0: 1 635 170 aborts for 1 440 commits, 140 s real for one cell",
			},
			run: runSTM,
		},
		{
			Name: "serve_confined",
			Why:  "confined lane only: per-batch Fleet.Round, kernel relaunch and Submitter; bypasses coordination, directory and rebalancer, so a change to those must not move it",
			Serve: &serveSpec{
				DPUs: 8, Tasklets: 8, STM: "NOrec", Scheduler: "fifo",
				MaxBatch: serveMaxBatch, MaxDelaySeconds: serveMaxDelay,
				App: "kv", Txns: pick(75000, 1500), TxnSize: 2, ReadPct: 80, Keyspace: pick(4096, 512),
				Rate: 100e3, Ladder: []float64{100e3, 200e3, 300e3}, LadderTxns: pick(20000, 400),
				Check: true,
			},
			run: runServe,
		},
		{
			Name: "serve_cross",
			Why:  "mixed lanes: gather, kernel-side apply and writeback compile, replica write-through, lane batching: the applyTxns stages ROADMAP item 3 will restructure",
			Serve: &serveSpec{
				DPUs: 8, Tasklets: 8, STM: "Tiny ETLWB", Rebalance: "split", Scheduler: "lane",
				MaxBatch: serveMaxBatch, MaxDelaySeconds: serveMaxDelay,
				App: "kv", Txns: pick(60000, 800), TxnSize: 4, CrossDPU: 0.5, ZipfS: 1.2, ReadPct: 50, Keyspace: pick(4096, 512),
				Rate: 8e3, Ladder: []float64{8e3, 16e3, 32e3}, LadderTxns: pick(20000, 400),
				Check: true,
			},
			run: runServe,
		},
		{
			Name: "apps_neworder",
			Why:  "an application end to end: hot commutative counters, guarded subtractions, split-key epochs, guard aborts counted as outcomes",
			Serve: &serveSpec{
				DPUs: 8, Tasklets: 8, STM: "Tiny ETLWB", Rebalance: "split", Scheduler: "lane",
				MaxBatch: serveMaxBatch, MaxDelaySeconds: serveMaxDelay,
				App: "neworder", Txns: pick(60000, 900), Districts: 4, Items: pick(2048, 256), InitialStock: 1000, ZipfS: 1.2,
				Rate: 8e3, Ladder: []float64{8e3, 16e3, 32e3}, LadderTxns: pick(20000, 400),
				Check: true,
			},
			run: runServe,
		},
		{
			Name: "scale_sampled",
			Why:  "host does the work, DPUs almost none: classify/route/shadow phases plus per-transaction Submit/Future cost; the only workload where the host-parallel engine and the Submitter dominate",
			Serve: &serveSpec{
				DPUs: 2500, Tasklets: 8, Sample: 8, Buckets: 64, Capacity: 8 * 32,
				STM: "NOrec", Scheduler: "fifo", MaxBatch: 4096, MaxDelaySeconds: 2e-3,
				App: "kv", Txns: pick(3000000, 52000), TxnSize: 1, ReadPct: 90, Keyspace: 2500 * 32,
				Rate: 2500 * 1000, Ladder: []float64{2500 * 500, 2500 * 1000, 2500 * 2000}, LadderTxns: pick(600000, 12000),
			},
			run: runServe,
		},
		{
			Name: "sweep_cells",
			Why:  "construction dominates and running does not: where dpu.New -> Reset double zeroing and per-cell re-faulting must show, and must not show on the long-running serving workloads",
			Sweep: &sweepSpec{
				Base: serveSpec{
					DPUs: 8, Tasklets: 8, Scheduler: "fifo", MaxBatch: 64, MaxDelaySeconds: 300e-6,
					App: "kv", Txns: 400, ReadPct: 80, Keyspace: 512, Rate: 4e4, Check: true,
				},
				Algorithms: allAlgorithms(),
				Shapes:     []txnShape{{1, 0}, {2, 0}, {2, 0.5}},
				Zipfs:      []float64{0, 1.2},
				MaxCells:   pick(0, 2),
			},
			run: runSweep,
		},
	}
}

func findWorkload(defs []workloadDef, name string) (workloadDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}

func workloadNames() []string {
	var out []string
	for _, d := range workloadTable(false) {
		out = append(out, d.Name)
	}
	return out
}

// stmConfig assembles the core.Config of one cell the way the paper
// harness does, including its lock-table spill rule (ArrayBench A's
// table exceeds WRAM and stays in MRAM).
func stmConfig(spec harness.WorkloadSpec, alg core.Algorithm, tier dpu.Tier) core.Config {
	cfg := core.Config{Algorithm: alg, MetaTier: tier, LockTableEntries: spec.LockTableEntries}
	if tier == dpu.WRAM && spec.SpillLockTable {
		m := dpu.MRAM
		cfg.LockTableTier = &m
	}
	return cfg
}

// runSTM runs every cell of an stm_* workload on a fresh DPU, timing
// each call into dpu, core and workloads from outside. DPU.Run is where
// the STM executes, so core's real cost is reported as dpu.run_s per
// transactional operation (host time per simulated event).
func runSTM(c *child, def workloadDef) error {
	s := def.STM
	var total core.Stats
	var cycles, dmaTransfers, dmaBytes uint64
	var seconds float64
	tierCommits, tierSeconds := map[dpu.Tier]float64{}, map[dpu.Tier]float64{}
	var lats []weighted
	cell := 0
	for _, wname := range s.Workloads {
		spec, err := harness.SpecByName(wname)
		if err != nil {
			return err
		}
		for _, tname := range s.Tiers {
			tier := dpu.MRAM
			if tname == "WRAM" {
				tier = dpu.WRAM
			}
			for _, aname := range s.Algorithms {
				alg, err := core.ParseAlgorithm(aname)
				if err != nil {
					return err
				}
				for _, tasklets := range s.Tasklets {
					st, d, err := c.runSTMCell(cell, spec, stmConfig(spec, alg, tier), s, tasklets, &lats)
					if err != nil {
						return fmt.Errorf("%s %v %v %d tasklets: %w", wname, alg, tier, tasklets, err)
					}
					total.Merge(&st)
					cycles += d.Cycles()
					dmaTransfers += d.DMATransfers()
					dmaBytes += d.DMABytes()
					seconds += d.Duration()
					tierCommits[tier] += float64(st.Commits)
					tierSeconds[tier] += d.Duration()
					c.fold(float64(d.Cycles()), float64(st.Commits), float64(st.Aborts), float64(d.DMATransfers()))
					cell++
				}
			}
		}
	}

	m := c.res.Modeled
	m["dpu.cycles"] = float64(cycles)
	m["dpu.dma_transfers"] = float64(dmaTransfers)
	m["dpu.dma_bytes"] = float64(dmaBytes)
	m["core.commits"] = float64(total.Commits)
	m["core.aborts"] = float64(total.Aborts)
	m["core.abort_frac"] = total.AbortRate()
	m["core.aborts_lock_busy"] = float64(total.AbortsBy[core.AbortLockBusy])
	m["core.aborts_validation"] = float64(total.AbortsBy[core.AbortValidation])
	m["core.aborts_upgrade"] = float64(total.AbortsBy[core.AbortUpgrade])
	m["core.aborts_read_lock_busy"] = float64(total.AbortsBy[core.AbortReadLockBusy])
	m["core.reads"] = float64(total.Reads)
	m["core.writes"] = float64(total.Writes)
	phaseNames := [core.NumPhases]string{"reading", "writing", "validate_exec", "other_exec", "validate_commit", "other_commit", "wasted"}
	if tc := float64(total.TotalCycles()); tc > 0 {
		for p, name := range phaseNames {
			m["core.phase_frac."+name] = float64(total.Phases[p]) / tc
		}
	}
	// Commits per modeled second, over all cells: total commits over
	// total modeled time, so long cells weigh as much as they take.
	m["modeled_tput"] = float64(total.Commits) / seconds
	m["modeled_p50_s"] = weightedQuantile(lats, 0.50)
	m["modeled_p99_s"] = weightedQuantile(lats, 0.99)
	c.res.LatencySamples = int(total.Commits)
	if tierSeconds[dpu.WRAM] > 0 && tierSeconds[dpu.MRAM] > 0 {
		m["core.tier_gain"] = (tierCommits[dpu.WRAM] / tierSeconds[dpu.WRAM]) / (tierCommits[dpu.MRAM] / tierSeconds[dpu.MRAM])
	}

	r := c.res.Real
	if run := r["dpu.run_s"]; run > 0 {
		r["dpu.cycles_per_real_s"] = float64(cycles) / run
		r["core.real_ns_per_txop"] = run * 1e9 / float64(total.Reads+total.Writes)
		r["core.real_us_per_commit"] = run * 1e6 / float64(total.Commits)
	}
	c.res.Work = int64(total.Commits)
	c.res.WorkUnit = "committed STM transactions"
	return nil
}

// runSTMCell is workloads.Run taken apart so each layer call can be
// timed on its own. It appends the cell's commit latencies to lats: the
// exported stats hold cycles and commits per tasklet, not per
// transaction, so every commit of a tasklet counts at that tasklet's
// mean — its cycles in all seven phases, wasted attempts included, over
// its commits.
func (c *child) runSTMCell(cell int, spec harness.WorkloadSpec, scfg core.Config, s *stmSpec, tasklets int, lats *[]weighted) (core.Stats, *dpu.DPU, error) {
	var stats core.Stats
	w := spec.New(s.Scale)
	var d *dpu.DPU
	c.timed("dpu.new", cell, func() { d = dpu.New(dpu.Config{MRAMSize: s.MRAMSize, Seed: c.seed}) })
	var tm *core.TM
	var err error
	c.timed("core.new", cell, func() { tm, err = core.New(d, scfg) })
	if err != nil {
		return stats, nil, err
	}
	c.timed("workloads.setup", cell, func() { err = w.Setup(d) })
	if err != nil {
		return stats, nil, err
	}
	if mp, ok := w.(interface{ SetTasklets(int) }); ok {
		mp.SetTasklets(tasklets)
	}
	txs := make([]*core.Tx, tasklets)
	progs := make([]func(*dpu.Tasklet), tasklets)
	for i := range progs {
		progs[i] = func(t *dpu.Tasklet) {
			tx := tm.NewTx(t)
			txs[t.ID] = tx
			w.Body(tx, t.ID, tasklets)
		}
	}
	c.timed("dpu.run", cell, func() { _, err = d.Run(progs) })
	if err != nil {
		return stats, nil, err
	}
	for _, tx := range txs {
		st := tx.Stats()
		stats.Merge(st)
		if st.Commits > 0 {
			*lats = append(*lats, weighted{d.Seconds(st.TotalCycles()) / float64(st.Commits), st.Commits})
		}
	}
	c.res.Attempted++
	c.timed("workloads.verify", cell, func() {
		if err := w.Verify(d); err != nil {
			c.fail("cell %d %s %v: %v", cell, spec.Name, scfg.Algorithm, err)
			return
		}
		// ArrayBench's invariant is exact given the commit count.
		if ab, ok := w.(*workloads.ArrayBench); ok {
			if got, want := ab.Sum(d), ab.ExpectedSum(stats.Commits); got != want {
				c.fail("cell %d %s %v: array sum %d, %d commits imply %d", cell, spec.Name, scfg.Algorithm, got, stats.Commits, want)
			}
		}
	})
	return stats, d, nil
}

// cells expands the sweep grid in declared order.
func (s sweepSpec) cells() []serveSpec {
	var out []serveSpec
	for _, alg := range s.Algorithms {
		for _, sh := range s.Shapes {
			for _, z := range s.Zipfs {
				cell := s.Base
				cell.STM, cell.TxnSize, cell.CrossDPU, cell.ZipfS = alg, sh.TxnSize, sh.CrossDPU, z
				out = append(out, cell)
			}
		}
	}
	if s.MaxCells > 0 && len(out) > s.MaxCells {
		out = out[:s.MaxCells]
	}
	return out
}

// runSweep serves every cell of the grid on a fresh store. Latencies
// are pooled over the cells; throughput is total ops over total
// modeled makespan.
func runSweep(c *child, def workloadDef) error {
	var ops int
	var makespan float64
	var lats []float64
	for i, cell := range def.Sweep.cells() {
		w, err := cell.workload(c.seed, cell.Txns, cell.Rate)
		if err != nil {
			return err
		}
		var trace []host.TimedTxn
		var preload []host.Op
		c.timed("traffic.generate", i, func() {
			preload = w.Preload()
			trace, err = w.Generate()
		})
		if err != nil {
			return err
		}
		out, err := c.serveOnce(cell, trace, preload, i)
		if err != nil {
			return fmt.Errorf("cell %d (%s, %d-op, cross %g, zipf %g): %w", i, cell.STM, cell.TxnSize, cell.CrossDPU, cell.ZipfS, err)
		}
		c.checkServed(w, cell, out, i)
		c.recordServed(out)
		ops += out.res.Ops
		makespan += out.res.MakespanSeconds
		lats = append(lats, out.lats...)
	}
	m := c.res.Modeled
	m["modeled_tput"] = float64(ops) / makespan
	m["modeled_p50_s"] = host.Quantile(lats, 0.50)
	m["modeled_p99_s"] = host.Quantile(lats, 0.99)
	m["submitter.mean_batch_ops"] = float64(ops) / m["partmap.batches"]
	m["fleet.pipeline_gain"] = 0 // per-store ratio; not defined over a grid of stores
	c.res.Work = int64(ops)
	c.res.WorkUnit = "served ops"
	return nil
}

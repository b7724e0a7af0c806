package host

import (
	"reflect"
	"sync"
	"testing"

	"pimstm/internal/core"
)

// storeContents reads every key the trace could have touched back out
// of the served store — the observable state a differential comparison
// cares about (Get spans simulated DPUs and shadow shards alike).
func storeContents(t *testing.T, pm *PartitionedMap, keyspace int) map[uint64]uint64 {
	t.Helper()
	out := make(map[uint64]uint64)
	for k := uint64(0); k < uint64(keyspace); k++ {
		if v, ok := pm.Get(k); ok {
			out[k] = v
		}
	}
	return out
}

// TestHostParallelismDifferential: every HostParallelism setting —
// GOMAXPROCS, explicit 2 and 4 workers — produces byte-identical
// modeled results to one worker, across placement × scheduler ×
// fleet-mode variants:
// exact and sampled fleets, static-hash and directory placement with
// an armed rebalancer (split keys included), FIFO and lane scheduling,
// single-op and cross-DPU multi-op traffic.
func TestHostParallelismDifferential(t *testing.T) {
	type variant struct {
		name     string
		keyspace int
		cfg      func(par int) ServeConfig
	}
	variants := []variant{
		{
			name:     "exact-statichash-multiop",
			keyspace: 256,
			cfg: func(par int) ServeConfig {
				return ServeConfig{
					Map: PartitionedMapConfig{
						DPUs: 8, Tasklets: 4, STM: core.Config{Algorithm: core.NOrec},
						Mode: Pipelined, HostParallelism: par,
					},
					Submit: SubmitterConfig{MaxBatch: 64, MaxDelaySeconds: 300e-6},
					Traffic: TrafficConfig{
						Ops: 600, Rate: 2e5, ReadPct: 70, Keyspace: 256, ZipfS: 1.0, Seed: 7,
						TxnSize: 2, CrossDPU: 0.3, DPUs: 8,
					},
					KeepResults: true,
				}
			},
		},
		{
			name:     "sampled-statichash-multiop",
			keyspace: 1024,
			cfg: func(par int) ServeConfig {
				return ServeConfig{
					Map: PartitionedMapConfig{
						DPUs: 64, Tasklets: 4, STM: core.Config{Algorithm: core.NOrec},
						Mode: Pipelined, Sample: 4, HostParallelism: par,
					},
					Submit: SubmitterConfig{MaxBatch: 128, MaxDelaySeconds: 300e-6},
					Traffic: TrafficConfig{
						Ops: 600, Rate: 2e5, ReadPct: 80, Keyspace: 1024, ZipfS: 0.9, Seed: 11,
						TxnSize: 2, CrossDPU: 0.2, DPUs: 64,
					},
					KeepResults: true,
				}
			},
		},
		{
			name:     "directory-rebalancer-hotsplit",
			keyspace: 128,
			cfg: func(par int) ServeConfig {
				return ServeConfig{
					Map: PartitionedMapConfig{
						DPUs: 4, Tasklets: 4, STM: core.Config{Algorithm: core.NOrec},
						Placement: NewDirectory(4), HostParallelism: par,
					},
					Submit: SubmitterConfig{MaxBatch: 64},
					Traffic: TrafficConfig{
						Ops: 1200, Rate: 2e5, ReadPct: 50, Keyspace: 128, Seed: 5,
						HotKeys: 4, HotWriteFrac: 0.6,
					},
					Rebalance: &RebalancerConfig{
						WindowBatches: 3, TopK: 4, MinKeyOps: 8,
						SplitMinAddShare: 0.5,
					},
					KeepResults: true,
				}
			},
		},
		{
			// Single-op traffic on a sampled static-hash fleet takes the
			// inline shadow-apply path (no unit staging at all): mixed
			// gets, puts, deletes via write skew, and guarded adds on hot
			// keys through the RMW eval fallback.
			name:     "sampled-singleop-inline",
			keyspace: 1024,
			cfg: func(par int) ServeConfig {
				return ServeConfig{
					Map: PartitionedMapConfig{
						DPUs: 64, Tasklets: 4, STM: core.Config{Algorithm: core.NOrec},
						Mode: Pipelined, Sample: 4, HostParallelism: par,
					},
					Submit: SubmitterConfig{MaxBatch: 128, MaxDelaySeconds: 300e-6},
					Traffic: TrafficConfig{
						Ops: 900, Rate: 2e5, ReadPct: 60, Keyspace: 1024, ZipfS: 0.8, Seed: 17,
						HotKeys: 8, HotWriteFrac: 0.5,
					},
					KeepResults: true,
				}
			},
		},
		{
			name:     "sampled-lane-scheduler",
			keyspace: 512,
			cfg: func(par int) ServeConfig {
				return ServeConfig{
					Map: PartitionedMapConfig{
						DPUs: 64, Tasklets: 4, STM: core.Config{Algorithm: core.NOrec},
						Mode: Pipelined, Sample: 4, HostParallelism: par,
					},
					Submit: SubmitterConfig{MaxBatch: 64, MaxDelaySeconds: 300e-6},
					Traffic: TrafficConfig{
						Ops: 600, Rate: 2e5, ReadPct: 85, Keyspace: 512, ZipfS: 1.1, Seed: 13,
						TxnSize: 2, CrossDPU: 0.3, DPUs: 64,
					},
					Scheduler: func() Scheduler {
						return NewLaneScheduler(LaneSchedulerConfig{
							Confined:    LaneConfig{MaxBatch: 64, MaxDelaySeconds: 300e-6},
							Coordinated: LaneConfig{MaxBatch: 64, MaxDelaySeconds: 300e-6},
						})
					},
					KeepResults: true,
				}
			},
		},
	}

	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			run := func(par int) (ServeResult, map[uint64]uint64) {
				res, err := Serve(v.cfg(par))
				if err != nil {
					t.Fatalf("par %d: %v", par, err)
				}
				state := storeContents(t, res.Store, v.keyspace)
				res.Store = nil // pointers differ by construction
				return res, state
			}
			ref, refState := run(1)
			if ref.HostWorkers != 1 {
				t.Fatalf("one-worker run reports %d workers", ref.HostWorkers)
			}
			ref.ZeroHostClock()
			for _, par := range []int{0, 2, 4} {
				got, gotState := run(par)
				if got.HostWorkers < 1 {
					t.Fatalf("par %d reports %d workers", par, got.HostWorkers)
				}
				got.ZeroHostClock()
				if !reflect.DeepEqual(got, ref) {
					t.Fatalf("par %d diverged from one worker:\n%+v\n%+v", par, got, ref)
				}
				if !reflect.DeepEqual(gotState, refState) {
					t.Fatalf("par %d store diverged from one worker", par)
				}
			}
		})
	}
}

// TestHostParallelShadowRaceStress is the -race target for the engine:
// many client goroutines hammer Submit against a sampled-fleet store
// whose shadow application, classification, and write analysis run on
// an explicit 4-worker pool, with batches big enough (1024 single-op
// adds, 248 shadow shards) to cross every parallel-dispatch floor.
// The workload is commutative (guarded OpAdd on preloaded counters,
// some cross-DPU 2-op adds), so despite nondeterministic batch
// formation the final store state must equal both the arithmetic
// expectation and a one-worker sequential replay of the same
// transaction multiset.
func TestHostParallelShadowRaceStress(t *testing.T) {
	const (
		dpus     = 256
		sample   = 8
		keyspace = 4096
		clients  = 8
		each     = 250
	)
	mkMap := func(par int) *PartitionedMap {
		pm, err := NewPartitionedMap(PartitionedMapConfig{
			DPUs: dpus, Tasklets: 4, Buckets: 64, Capacity: 512,
			STM: core.Config{Algorithm: core.NOrec}, Mode: Pipelined,
			Sample: sample, HostParallelism: par,
		})
		if err != nil {
			t.Fatal(err)
		}
		var preload []Op
		for k := uint64(0); k < keyspace; k++ {
			preload = append(preload, Op{Kind: OpPut, Key: k, Value: k})
		}
		if _, err := pm.ApplyBatch(preload); err != nil {
			t.Fatal(err)
		}
		return pm
	}

	// Deterministic per-client transaction streams: mostly single
	// guarded adds, every 5th a cross-DPU 2-op add.
	txnFor := func(c, i int) Txn {
		k1 := uint64((c*each+i)*2654435761) % keyspace
		if i%5 == 4 {
			k2 := (k1 + keyspace/2) % keyspace
			return Txn{Ops: []Op{
				{Kind: OpAdd, Key: k1, Value: 1},
				{Kind: OpAdd, Key: k2, Value: 1},
			}}
		}
		return Txn{Ops: []Op{{Kind: OpAdd, Key: k1, Value: 1}}}
	}
	adds := make(map[uint64]uint64)
	var allTxns []Txn
	for c := 0; c < clients; c++ {
		for i := 0; i < each; i++ {
			txn := txnFor(c, i)
			for _, op := range txn.Ops {
				adds[op.Key] += op.Value
			}
			allTxns = append(allTxns, txn)
		}
	}

	pm := mkMap(4)
	s := NewSubmitter(pm, SubmitterConfig{MaxBatch: 1024, MaxDelaySeconds: 1, Queue: 64})
	var wg sync.WaitGroup
	futs := make([][]*Future, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				f, err := s.Submit(txnFor(c, i), float64(i)*1e-6)
				if err != nil {
					t.Errorf("client %d submit: %v", c, err)
					return
				}
				futs[c] = append(futs[c], f)
			}
		}(c)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for c := range futs {
		for i, f := range futs[c] {
			if res := f.Wait(); res.Err != nil || !res.Committed {
				t.Fatalf("client %d txn %d: %+v", c, i, res)
			}
		}
	}

	// Sequential replay of the same multiset with one worker.
	ref := mkMap(1)
	for lo := 0; lo < len(allTxns); lo += 1024 {
		hi := min(lo+1024, len(allTxns))
		res, err := ref.ApplyTxns(allTxns[lo:hi])
		if err != nil {
			t.Fatal(err)
		}
		for i := range res {
			if !res[i].Committed {
				t.Fatalf("replayed txn %d aborted: %+v", lo+i, res[i])
			}
		}
	}

	for k := uint64(0); k < keyspace; k++ {
		want := k + adds[k]
		if v, ok := pm.Get(k); !ok || v != want {
			t.Fatalf("key %d: engine store holds (%d,%v), want %d", k, v, ok, want)
		}
		if v, ok := ref.Get(k); !ok || v != want {
			t.Fatalf("key %d: replayed store holds (%d,%v), want %d", k, v, ok, want)
		}
	}
}

// largeBatchVariant is one configuration of the large-batch worker-count
// differential: a fleet, a keyspace, and a batch size big enough that a
// 4-worker engine really dispatches four workers (the small variants
// above stay under minTxnsPerWorker / minShardsPerWorker and run one).
type largeBatchVariant struct {
	name         string
	dpus, sample int
	directory    bool
	keyspace     int
	// hot keys [0,hot) are replicated and never deleted, so they keep
	// their copy set for the whole run and may take several plain puts
	// per batch (the replicated-put rule pins those to one owner tasklet
	// in batch order); warm keys [hot,hot+warm) are replicated too but
	// deletable, and are re-promoted between batches.
	hot, warm      int
	batch, batches int
	long           bool
}

// genLargeBatches builds the variant's batches. Every batch mixes
// confined multi-op transactions, cross-DPU multi-op transactions,
// single-op guarded RMWs and plain single ops, shaped so that batch
// order is the only legal outcome and refApplyTxn can predict every
// result: a plain single op lands on a key some serializing transaction
// of the batch touches (the conflict rule then orders every toucher), on
// a hot key in this batch's mode for it (puts only, or gets only), or on
// a key no other plain op of the batch uses. Replicated key k cycles
// through four phases, (b+k)%4 in batch b: plain puts only, plain gets
// only (served by the copies the previous batch wrote through), then
// the same two modes with serializing transactions allowed on the key
// (guarded writers stale the copies; a later batch refreshes them).
func genLargeBatches(v largeBatchVariant, owner func(uint64) int) [][]Txn {
	rng := Rand64(uint64(v.dpus)*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03)
	byDPU := make([][]uint64, v.dpus)
	for k := uint64(0); k < uint64(v.keyspace); k++ {
		byDPU[owner(k)] = append(byDPU[owner(k)], k)
	}
	isHot := func(k uint64) bool { return k < uint64(v.hot) }
	batch := 0
	// txnKey draws a serializing transaction's key from keys, skipping the
	// replicated keys whose phase keeps them plain this batch.
	txnKey := func(keys []uint64) uint64 {
		for {
			k := keys[rng.Next()%uint64(len(keys))]
			if k >= uint64(v.hot+v.warm) || (batch+int(k))%4 >= 2 {
				return k
			}
		}
	}
	// txnOp draws one op of a serializing transaction; hot keys are never
	// deleted.
	txnOp := func(k uint64) Op {
		switch kind := rng.Next() % 10; {
		case kind == 0 && !isHot(k):
			return Op{Kind: OpDelete, Key: k}
		case kind <= 2:
			return Op{Kind: OpPut, Key: k, Value: rng.Next() % 1000}
		case kind <= 4:
			return Op{Kind: OpAdd, Key: k, Value: rng.Next() % 50}
		case kind <= 6:
			return Op{Kind: OpSub, Key: k, Value: rng.Next() % 50}
		}
		return Op{Kind: OpGet, Key: k}
	}
	all := make([]uint64, v.keyspace)
	for k := range all {
		all[k] = uint64(k)
	}
	var out [][]Txn
	for batch = 0; batch < v.batches; batch++ {
		txns := make([]Txn, v.batch)
		serial := make(map[uint64]bool)
		var plain []int
		for i := range txns {
			var ops []Op
			switch draw := rng.Next() % 40; {
			case draw < 6: // confined multi-op
				keys := byDPU[rng.Next()%uint64(v.dpus)]
				for len(keys) == 0 {
					keys = byDPU[rng.Next()%uint64(v.dpus)]
				}
				for j := 2 + rng.Next()%2; j > 0; j-- {
					ops = append(ops, txnOp(txnKey(keys)))
				}
			case draw < 7: // cross-DPU multi-op (when the two owners differ)
				ops = []Op{txnOp(txnKey(all)), txnOp(txnKey(all))}
			case draw < 24: // single-op guarded RMW
				kind := OpAdd
				if rng.Next()%2 == 0 {
					kind = OpSub
				}
				ops = []Op{{Kind: kind, Key: txnKey(all), Value: rng.Next() % 50}}
			default:
				plain = append(plain, i)
				continue
			}
			for _, op := range ops {
				serial[op.Key] = true
			}
			txns[i] = Txn{Ops: ops}
		}
		used := make(map[uint64]bool)
		for _, i := range plain {
			for {
				k := rng.Next() % uint64(v.keyspace)
				// Half the plain traffic concentrates on the replicated
				// keys, so the copies are written through and read back.
				if v.hot > 0 && rng.Next()%2 == 0 {
					k = rng.Next() % uint64(v.hot+v.warm)
				}
				var op Op
				switch {
				case isHot(k) && !serial[k]:
					op = Op{Kind: OpGet, Key: k}
					if (batch+int(k))%2 == 0 {
						op = Op{Kind: OpPut, Key: k, Value: rng.Next() % 1000}
					}
				case serial[k] || !used[k]:
					used[k] = true
					switch kind := rng.Next() % 10; {
					case kind == 0 && !isHot(k):
						op = Op{Kind: OpDelete, Key: k}
					case kind <= 3:
						op = Op{Kind: OpPut, Key: k, Value: rng.Next() % 1000}
					default:
						op = Op{Kind: OpGet, Key: k}
					}
				default:
					continue
				}
				txns[i] = Txn{Ops: []Op{op}}
				break
			}
		}
		// Read every replicated key back three times in a batch of its
		// own, so the owner and both copies answer (a single-op read
		// spreads by batch position).
		out = append(out, txns)
		if v.hot+v.warm > 0 {
			var readBack []Txn
			for k := uint64(0); k < uint64(v.hot+v.warm); k++ {
				for j := 0; j < 3; j++ {
					readBack = append(readBack, Txn{Ops: []Op{{Kind: OpGet, Key: k}}})
				}
			}
			out = append(out, readBack)
		}
	}
	return out
}

// TestHostParallelismLargeBatchDifferential makes worker-count equality
// a real oracle: batches of ≥ 2048 multi-op and guarded-RMW transactions
// cross minTxnsPerWorker at four workers (striped classification and
// the classK merge), a Directory with replicated keys taking repeated
// puts and deletes makes the striped keyW merge — last stripe wins on
// fk/lastPut — decide what the copies hold, and a 320-DPU sampled fleet
// involves > 256 shadow shards per batch (the chunked shadow dispatch).
// Every HostParallelism setting must match the one-worker run on every
// result and modeled number, and every run must match the independent
// reference evaluator result by result and on the final store state.
func TestHostParallelismLargeBatchDifferential(t *testing.T) {
	variants := []largeBatchVariant{
		{name: "directory-replicas", dpus: 8, sample: 0, directory: true,
			keyspace: 1024, hot: 8, warm: 56, batch: 2048, batches: 4},
		{name: "sampled-320-shards", dpus: 320, sample: 8,
			keyspace: 1280, batch: 2560, batches: 2, long: true},
	}
	type window struct {
		results []TxnResult
		seconds float64
		phases  ApplyTxnsStats
	}
	type outcome struct {
		windows     []window
		stats       FleetStats
		coordinated int
		dirStats    DirectoryStats
		state       map[uint64]uint64
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			if v.long && testing.Short() {
				t.Skip("largest variant")
			}
			build := func(par int) *PartitionedMap {
				cfg := PartitionedMapConfig{
					DPUs: v.dpus, Buckets: 64, Capacity: 512, Tasklets: 4,
					STM: core.Config{Algorithm: core.NOrec}, Mode: Pipelined,
					Sample: v.sample, HostParallelism: par,
				}
				if v.directory {
					cfg.Placement = NewDirectory(v.dpus)
				}
				pm, err := NewPartitionedMap(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return pm
			}
			batches := genLargeBatches(v, build(1).owner)

			// The reference: preload, then every batch in batch order.
			ref := make(map[uint64]uint64)
			var load []Op
			for k := uint64(0); k < uint64(v.keyspace); k++ {
				if k < uint64(v.hot+v.warm) || k%2 == 0 {
					load = append(load, Op{Kind: OpPut, Key: k, Value: 500 + k})
					ref[k] = 500 + k
				}
			}
			type refTxn struct {
				res []OpResult
				ok  bool
			}
			want := make([][]refTxn, len(batches))
			for b, txns := range batches {
				want[b] = make([]refTxn, len(txns))
				for i, txn := range txns {
					want[b][i].res, want[b][i].ok = refApplyTxn(ref, txn)
				}
			}

			run := func(par int) outcome {
				pm := build(par)
				if _, err := pm.ApplyBatch(load); err != nil {
					t.Fatal(err)
				}
				var out outcome
				for b, txns := range batches {
					// (Re-)promote the replicated keys that hold no copies:
					// all of them before the first batch, afterwards the
					// warm keys a delete dropped (ReplicateKeys skips the
					// ones still missing from their owner).
					reps := make(map[uint64][]int)
					for k := uint64(0); k < uint64(v.hot+v.warm); k++ {
						if len(pm.dir.allReplicas(k)) == 0 {
							o := pm.owner(k)
							reps[k] = []int{(o + 1) % v.dpus, (o + 2) % v.dpus}
						}
					}
					if len(reps) > 0 {
						if err := pm.ReplicateKeys(reps); err != nil {
							t.Fatal(err)
						}
					}
					res, err := pm.ApplyTxns(txns)
					if err != nil {
						t.Fatalf("par %d batch %d: %v", par, b, err)
					}
					for i := range res {
						w := want[b][i]
						if res[i].Err != nil || res[i].Committed != w.ok {
							t.Fatalf("par %d batch %d txn %d (%+v): got %+v, reference committed %v",
								par, b, i, txns[i].Ops, res[i], w.ok)
						}
						for j := range w.res {
							if res[i].Results[j] != w.res[j] {
								t.Fatalf("par %d batch %d txn %d op %d (%+v): got %+v want %+v",
									par, b, i, j, txns[i].Ops[j], res[i].Results[j], w.res[j])
							}
						}
					}
					ph := pm.BatchPhases
					ph.HostClassifySeconds, ph.HostRouteSeconds = 0, 0
					ph.HostShadowSeconds, ph.HostCompileSeconds = 0, 0
					out.windows = append(out.windows, window{res, pm.BatchSeconds, ph})
				}
				out.stats, out.coordinated = pm.Stats(), pm.TxnsCoordinated
				if pm.dir != nil {
					out.dirStats = pm.dir.Stats()
				}
				out.state = storeContents(t, pm, v.keyspace)
				if !reflect.DeepEqual(out.state, ref) {
					t.Fatalf("par %d final store state diverged from the reference", par)
				}
				if pm.Len() != len(ref) {
					t.Fatalf("par %d final len %d, reference %d", par, pm.Len(), len(ref))
				}
				return out
			}
			one := run(1)
			if one.coordinated == 0 {
				t.Fatal("stream never coordinated")
			}
			for _, par := range []int{0, 2, 4} {
				if got := run(par); !reflect.DeepEqual(got, one) {
					t.Fatalf("par %d diverged from the one-worker run on modeled outputs", par)
				}
			}
		})
	}
}

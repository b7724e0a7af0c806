package host

import (
	"fmt"
	"testing"

	"pimstm/internal/core"
)

// The differential safety net for the placement and Txn refactors:
// randomized op/transaction streams run through a
// PartitionedMap under every placement — static hash, directory,
// directory with an aggressive rebalancer forcing replication, and one
// forcing migration — and every result must match a plain host-side
// reference map. Single-op batches use distinct keys (each op is an
// independent concurrent transaction, so same-key intra-batch order is
// unspecified by design); transfers (2-op debit/credit transactions)
// and multi-op transactions may repeat keys freely, because they
// serialize deterministically in batch order — so the transaction steps deliberately overlap keys,
// mix guarded RMWs with puts and deletes, and straddle whatever keys
// the rebalancer variants have migrated or replicated.

// diffStep is one step of a generated stream.
type diffStep struct {
	ops  []Op
	txns []Txn
}

// genStream builds a deterministic randomized stream over the keyspace.
func genStream(seed uint64, steps, keyspace int) []diffStep {
	rng := Rand64(seed*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03)
	// Zipf-ish key picker: half the draws concentrate on 4 hot keys so
	// the rebalancing variants actually act.
	pick := func() uint64 {
		if rng.Next()%2 == 0 {
			return rng.Next() % 4
		}
		return rng.Next() % uint64(keyspace)
	}
	out := make([]diffStep, steps)
	for s := range out {
		switch draw := rng.Next() % 10; {
		case draw < 5:
			n := int(8 + rng.Next()%25)
			used := make(map[uint64]bool)
			var ops []Op
			for len(ops) < n {
				k := pick()
				if used[k] {
					continue
				}
				used[k] = true
				switch rng.Next() % 10 {
				case 0:
					ops = append(ops, Op{Kind: OpDelete, Key: k})
				case 1, 2, 3:
					ops = append(ops, Op{Kind: OpPut, Key: k, Value: rng.Next() % 1000})
				default:
					ops = append(ops, Op{Kind: OpGet, Key: k})
				}
			}
			out[s] = diffStep{ops: ops}
		case draw < 7:
			// Transfer batch: each move a guarded debit plus a credit.
			n := int(1 + rng.Next()%6)
			txns := make([]Txn, n)
			for i := range txns {
				from, to, amount := pick(), pick(), rng.Next()%200
				txns[i] = moveTxn(from, to, amount)
			}
			out[s] = diffStep{txns: txns}
		default:
			// Multi-key transaction batch: 2–4 ops per txn, keys free
			// to collide across txns (batch order serializes them) and
			// to land on migrated or replicated keys.
			n := int(1 + rng.Next()%5)
			txns := make([]Txn, n)
			for i := range txns {
				size := int(2 + rng.Next()%3)
				ops := make([]Op, size)
				for j := range ops {
					k := pick()
					switch rng.Next() % 10 {
					case 0:
						ops[j] = Op{Kind: OpDelete, Key: k}
					case 1, 2:
						ops[j] = Op{Kind: OpPut, Key: k, Value: rng.Next() % 1000}
					case 3, 4:
						ops[j] = Op{Kind: OpAdd, Key: k, Value: rng.Next() % 100}
					case 5, 6:
						ops[j] = Op{Kind: OpSub, Key: k, Value: rng.Next() % 100}
					default:
						ops[j] = Op{Kind: OpGet, Key: k}
					}
				}
				txns[i] = Txn{Ops: ops}
			}
			out[s] = diffStep{txns: txns}
		}
	}
	return out
}

// refApplyTxn is the independent reference evaluator for one
// transaction: ops run in order against a working copy, a failing
// guard discards everything, and a commit replaces the reference
// state. Results mirror the store's contract — ops after a failing
// guard stay zero.
func refApplyTxn(ref map[uint64]uint64, txn Txn) ([]OpResult, bool) {
	res := make([]OpResult, len(txn.Ops))
	work := make(map[uint64]uint64, len(ref))
	for k, v := range ref {
		work[k] = v
	}
	for j, op := range txn.Ops {
		switch op.Kind {
		case OpGet:
			v, ok := work[op.Key]
			res[j].Value, res[j].OK = v, ok
		case OpPut:
			_, ok := work[op.Key]
			res[j].OK = !ok
			work[op.Key] = op.Value
		case OpDelete:
			_, res[j].OK = work[op.Key]
			delete(work, op.Key)
		case OpAdd:
			v, ok := work[op.Key]
			if !ok {
				return res, false
			}
			work[op.Key] = v + op.Value
			res[j].Value, res[j].OK = v+op.Value, true
		case OpSub:
			v, ok := work[op.Key]
			if !ok || v < op.Value {
				return res, false
			}
			work[op.Key] = v - op.Value
			res[j].Value, res[j].OK = v-op.Value, true
		}
	}
	for k := range ref {
		delete(ref, k)
	}
	for k, v := range work {
		ref[k] = v
	}
	return res, true
}

// refApply runs one single-op step against the reference map and
// returns the expected per-op results.
func refApply(ref map[uint64]uint64, ops []Op) []OpResult {
	res := make([]OpResult, len(ops))
	for i, op := range ops {
		switch op.Kind {
		case OpGet:
			res[i].Value, res[i].OK = ref[op.Key], false
			if _, ok := ref[op.Key]; ok {
				res[i].OK = true
			}
		case OpPut:
			_, exists := ref[op.Key]
			ref[op.Key] = op.Value
			res[i].OK = !exists
		case OpDelete:
			_, res[i].OK = ref[op.Key]
			delete(ref, op.Key)
		}
	}
	return res
}

// TestDifferentialKernelCommit pins the kernel-side commit against the
// independent host reference under every placement × scheduler × Sample
// setting: randomized multi-key transaction streams are admitted
// through a real Scheduler instance (the same Admit/Drain/Observe
// protocol the Submitter drives), every emitted batch is applied and
// compared transaction by transaction in batch order, and the final
// store state must equal the reference map. The stream deliberately
// mixes single-owner write sets with cross-DPU reads (the kernel-apply
// fast path), writes spanning owners (the two-round multi-owner
// commit), and overlapping conflict groups, so both commit paths — and
// their sampled-fleet shadow twins — face the same adversarial keys.
func TestDifferentialKernelCommit(t *testing.T) {
	const (
		dpus     = 4
		keyspace = 48
		txnCount = 120
	)
	genTxns := func(seed uint64, owner func(uint64) int) []Txn {
		rng := Rand64(seed*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03)
		pick := func() uint64 {
			if rng.Next()%2 == 0 {
				return rng.Next() % 4
			}
			return rng.Next() % uint64(keyspace)
		}
		// sameOwnerKey draws a key with the same static-hash owner as k,
		// biasing streams toward single-owner write sets.
		sameOwnerKey := func(k uint64) uint64 {
			for attempt := 0; attempt < 16; attempt++ {
				c := pick()
				if owner(c) == owner(k) {
					return c
				}
			}
			return k
		}
		txns := make([]Txn, txnCount)
		for i := range txns {
			size := int(2 + rng.Next()%3)
			ops := make([]Op, size)
			kernelShaped := rng.Next()%2 == 0
			base := pick()
			for j := range ops {
				k := pick()
				kind := rng.Next() % 10
				if kernelShaped && kind < 7 {
					// Writes share base's owner; reads roam — the
					// kernel-apply classification when placement agrees.
					k = sameOwnerKey(base)
				}
				switch kind {
				case 0:
					ops[j] = Op{Kind: OpDelete, Key: k}
				case 1, 2:
					ops[j] = Op{Kind: OpPut, Key: k, Value: rng.Next() % 1000}
				case 3, 4:
					ops[j] = Op{Kind: OpAdd, Key: k, Value: rng.Next() % 100}
				case 5, 6:
					ops[j] = Op{Kind: OpSub, Key: k, Value: rng.Next() % 100}
				default:
					ops[j] = Op{Kind: OpGet, Key: k}
				}
			}
			txns[i] = Txn{Ops: ops}
		}
		return txns
	}
	schedulers := map[string]func(pm *PartitionedMap) Scheduler{
		"fifo": func(*PartitionedMap) Scheduler { return NewFIFOScheduler(24, 300e-6) },
		"lane": func(pm *PartitionedMap) Scheduler {
			s := NewLaneScheduler(LaneSchedulerConfig{
				Confined:    LaneConfig{MaxBatch: 24, MaxDelaySeconds: 300e-6},
				Coordinated: LaneConfig{MaxBatch: 48, MaxDelaySeconds: 600e-6},
			})
			s.bindClassifier(pm.LaneOf)
			return s
		},
		"adaptive": func(pm *PartitionedMap) Scheduler {
			s := NewAdaptiveScheduler(LaneSchedulerConfig{
				Confined:    LaneConfig{MaxBatch: 24, MaxDelaySeconds: 300e-6},
				Coordinated: LaneConfig{MaxBatch: 48, MaxDelaySeconds: 600e-6},
			}, AdaptiveConfig{})
			s.bindClassifier(pm.LaneOf)
			return s
		},
	}
	placements := map[string]func() Placement{
		"static":    func() Placement { return nil },
		"directory": func() Placement { return NewDirectory(dpus) },
	}
	for placeName, place := range placements {
		for schedName, mkSched := range schedulers {
			for _, sample := range []int{0, 2} {
				name := fmt.Sprintf("%s/%s/sample%d", placeName, schedName, sample)
				t.Run(name, func(t *testing.T) {
					pm, err := NewPartitionedMap(PartitionedMapConfig{
						DPUs: dpus, Buckets: 64, Capacity: 512, Tasklets: 4,
						STM: core.Config{Algorithm: core.NOrec}, Placement: place(),
						Sample: sample,
					})
					if err != nil {
						t.Fatal(err)
					}
					var reb *Rebalancer
					if placeName == "directory" {
						// An aggressive control plane keeps migrating and
						// replicating the hot keys under the stream, so
						// owners shift mid-run.
						if reb, err = NewRebalancer(pm, RebalancerConfig{
							WindowBatches: 2, TopK: 4, MinKeyOps: 2, Trigger: 1.01,
							Replicas: 2, ReplicateMaxWriteShare: 0.5, CooldownWindows: 1,
						}); err != nil {
							t.Fatal(err)
						}
						_ = reb
					}
					ref := make(map[uint64]uint64)
					// Preload half the keyspace so guarded RMWs both hit
					// and miss.
					var load []Txn
					for k := uint64(0); k < keyspace; k += 2 {
						load = append(load, Txn{Ops: []Op{{Kind: OpPut, Key: k, Value: k}}})
						ref[k] = k
					}
					if _, err := pm.ApplyTxns(load); err != nil {
						t.Fatal(err)
					}
					sched := mkSched(pm)
					applyBatch := func(b SchedBatch) {
						if len(b.Txns) == 0 {
							return
						}
						txns := make([]Txn, len(b.Txns))
						for i := range b.Txns {
							txns[i] = b.Txns[i].Txn
						}
						got, err := pm.ApplyTxns(txns)
						if err != nil {
							t.Fatalf("batch apply: %v", err)
						}
						for i, txn := range txns {
							wantRes, wantOK := refApplyTxn(ref, txn)
							if got[i].Err != nil {
								t.Fatalf("txn %d errored: %v", i, got[i].Err)
							}
							if got[i].Committed != wantOK {
								t.Fatalf("txn %d (%+v): committed %v want %v",
									i, txn.Ops, got[i].Committed, wantOK)
							}
							for j := range wantRes {
								if got[i].Results[j] != wantRes[j] {
									t.Fatalf("txn %d op %d (%+v): got %+v want %+v",
										i, j, txn.Ops[j], got[i].Results[j], wantRes[j])
								}
							}
						}
						sched.Observe(b, BatchFeedback{
							Ops:              len(txns),
							KernelSeconds:    pm.BatchLaunchSeconds,
							HandshakeSeconds: pm.BatchTransferSeconds,
							WallSeconds:      pm.BatchSeconds,
						})
						if _, err := pm.MaybeRebalance(); err != nil {
							t.Fatalf("rebalance: %v", err)
						}
					}
					txns := genTxns(7, pm.owner)
					for i, txn := range txns {
						for _, b := range sched.Admit(SchedTxn{Txn: txn, Arrival: float64(i) * 1e-5}) {
							applyBatch(b)
						}
					}
					for _, b := range sched.Drain() {
						applyBatch(b)
					}
					if pm.TxnsCoordinated == 0 {
						t.Fatal("stream never coordinated; the kernel-commit path was not exercised")
					}
					for k := uint64(0); k < keyspace; k++ {
						want, wantOK := ref[k]
						got, gotOK := pm.Get(k)
						if gotOK != wantOK || (gotOK && got != want) {
							t.Fatalf("final key %d: got %d,%v want %d,%v", k, got, gotOK, want, wantOK)
						}
					}
				})
			}
		}
	}
}

func TestDifferentialPlacements(t *testing.T) {
	const (
		dpus     = 4
		keyspace = 48
		steps    = 30
	)
	variants := []struct {
		name  string
		build func() (*PartitionedMap, error)
	}{
		{"static", func() (*PartitionedMap, error) {
			return NewPartitionedMap(PartitionedMapConfig{
				DPUs: dpus, Buckets: 64, Capacity: 512, Tasklets: 4,
				STM: core.Config{Algorithm: core.NOrec},
			})
		}},
		{"directory", func() (*PartitionedMap, error) {
			return NewPartitionedMap(PartitionedMapConfig{
				DPUs: dpus, Buckets: 64, Capacity: 512, Tasklets: 4,
				STM: core.Config{Algorithm: core.NOrec}, Placement: NewDirectory(dpus),
			})
		}},
		// Aggressive control planes: tiny windows, no per-key floor to
		// speak of, and a write-share split forcing one variant to
		// replicate everything hot and the other to migrate it.
		{"directory+replicate", func() (*PartitionedMap, error) {
			pm, err := NewPartitionedMap(PartitionedMapConfig{
				DPUs: dpus, Buckets: 64, Capacity: 512, Tasklets: 4,
				STM: core.Config{Algorithm: core.NOrec}, Placement: NewDirectory(dpus),
			})
			if err != nil {
				return nil, err
			}
			_, err = NewRebalancer(pm, RebalancerConfig{
				WindowBatches: 2, TopK: 4, MinKeyOps: 2, Trigger: 1.01,
				Replicas: 2, ReplicateMaxWriteShare: 1.0, CooldownWindows: 1,
			})
			return pm, err
		}},
		{"directory+migrate", func() (*PartitionedMap, error) {
			pm, err := NewPartitionedMap(PartitionedMapConfig{
				DPUs: dpus, Buckets: 64, Capacity: 512, Tasklets: 4,
				STM: core.Config{Algorithm: core.NOrec}, Placement: NewDirectory(dpus),
			})
			if err != nil {
				return nil, err
			}
			_, err = NewRebalancer(pm, RebalancerConfig{
				WindowBatches: 2, TopK: 4, MinKeyOps: 2, Trigger: 1.01,
				Replicas: 2, ReplicateMaxWriteShare: 1e-9, CooldownWindows: 1,
			})
			return pm, err
		}},
	}

	for seed := uint64(1); seed <= 3; seed++ {
		stream := genStream(seed, steps, keyspace)
		for _, v := range variants {
			t.Run(fmt.Sprintf("seed%d/%s", seed, v.name), func(t *testing.T) {
				pm, err := v.build()
				if err != nil {
					t.Fatal(err)
				}
				ref := make(map[uint64]uint64)
				for si, step := range stream {
					if step.txns != nil {
						// Serial batch-order reference: the conflict
						// rule guarantees intersecting transactions
						// commit in batch order, and disjoint ones
						// commute.
						got, err := pm.ApplyTxns(step.txns)
						if err != nil {
							t.Fatalf("step %d: %v", si, err)
						}
						for i, txn := range step.txns {
							wantRes, wantOK := refApplyTxn(ref, txn)
							if got[i].Err != nil {
								t.Fatalf("step %d txn %d errored: %v", si, i, got[i].Err)
							}
							if got[i].Committed != wantOK {
								t.Fatalf("step %d txn %d (%+v): committed %v want %v",
									si, i, txn.Ops, got[i].Committed, wantOK)
							}
							for j := range wantRes {
								if got[i].Results[j] != wantRes[j] {
									t.Fatalf("step %d txn %d op %d (%+v): got %+v want %+v",
										si, i, j, txn.Ops[j], got[i].Results[j], wantRes[j])
								}
							}
						}
						if _, err := pm.MaybeRebalance(); err != nil {
							t.Fatalf("step %d rebalance: %v", si, err)
						}
						continue
					}
					wantRes := refApply(ref, step.ops)
					got, err := pm.ApplyBatch(step.ops)
					if err != nil {
						t.Fatalf("step %d: %v", si, err)
					}
					for i := range got {
						if got[i].Err != nil {
							t.Fatalf("step %d op %d errored: %v", si, i, got[i].Err)
						}
						if got[i] != wantRes[i] {
							t.Fatalf("step %d op %d (%+v): got %+v want %+v",
								si, i, step.ops[i], got[i], wantRes[i])
						}
					}
					if _, err := pm.MaybeRebalance(); err != nil {
						t.Fatalf("step %d rebalance: %v", si, err)
					}
				}
				// Final state: every key agrees with the reference.
				if pm.Len() != len(ref) {
					t.Fatalf("final len %d, reference %d", pm.Len(), len(ref))
				}
				for k := uint64(0); k < keyspace; k++ {
					want, wantOK := ref[k]
					got, gotOK := pm.Get(k)
					if gotOK != wantOK || (gotOK && got != want) {
						t.Fatalf("final key %d: got %d,%v want %d,%v", k, got, gotOK, want, wantOK)
					}
				}
				// Replicated reads agree too: one more all-Get pass.
				var gets []Op
				for k := uint64(0); k < keyspace; k++ {
					gets = append(gets, Op{Kind: OpGet, Key: k})
				}
				res, err := pm.ApplyBatch(gets)
				if err != nil {
					t.Fatal(err)
				}
				for k := uint64(0); k < keyspace; k++ {
					want, wantOK := ref[k]
					if res[k].OK != wantOK || (wantOK && res[k].Value != want) {
						t.Fatalf("replicated read of key %d: got %d,%v want %d,%v",
							k, res[k].Value, res[k].OK, want, wantOK)
					}
				}
			})
		}
	}
}

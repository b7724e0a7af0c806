package host

import (
	"testing"

	"pimstm/internal/core"
)

func newPM(t *testing.T, dpus int) *PartitionedMap {
	t.Helper()
	pm, err := NewPartitionedMap(PartitionedMapConfig{
		DPUs: dpus, Buckets: 64, Capacity: 512, Tasklets: 4,
		STM: core.Config{Algorithm: core.NOrec},
	})
	if err != nil {
		t.Fatal(err)
	}
	return pm
}

// moveTxn is a cross-key atomic move: a guarded debit of from plus a
// credit of to, refused as a whole when either key is missing or the
// source would underflow.
func moveTxn(from, to, amount uint64) Txn {
	return NewTxn(Op{Kind: OpSub, Key: from, Value: amount}, Op{Kind: OpAdd, Key: to, Value: amount})
}

// move applies one moveTxn as its own batch and reports whether it
// committed.
func move(t *testing.T, pm *PartitionedMap, from, to, amount uint64) bool {
	t.Helper()
	res, err := pm.ApplyTxns([]Txn{moveTxn(from, to, amount)})
	if err != nil {
		t.Fatal(err)
	}
	return res[0].Committed
}

func TestPartitionedMapValidation(t *testing.T) {
	if _, err := NewPartitionedMap(PartitionedMapConfig{Buckets: 64, Capacity: 64, Tasklets: 4}); err == nil {
		t.Fatal("zero DPUs accepted")
	}
	if _, err := NewPartitionedMap(PartitionedMapConfig{DPUs: 2, Buckets: 64, Capacity: 64}); err == nil {
		t.Fatal("zero tasklets accepted")
	}
	if _, err := NewPartitionedMap(PartitionedMapConfig{DPUs: 2, Buckets: 63, Capacity: 64, Tasklets: 4}); err == nil {
		t.Fatal("bad bucket count accepted")
	}
}

func TestPartitionedMapBatch(t *testing.T) {
	pm := newPM(t, 4)
	var ops []Op
	for k := uint64(0); k < 100; k++ {
		ops = append(ops, Op{Kind: OpPut, Key: k, Value: k * 10})
	}
	res, err := pm.ApplyBatch(ops)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Err != nil || !r.OK {
			t.Fatalf("put %d: %+v", i, r)
		}
	}
	if pm.Len() != 100 {
		t.Fatalf("len = %d", pm.Len())
	}
	if pm.BatchSeconds <= 0 {
		t.Fatal("batch time not accounted")
	}

	// Mixed batch: gets see the puts, deletes remove.
	ops = nil
	for k := uint64(0); k < 100; k += 2 {
		ops = append(ops, Op{Kind: OpGet, Key: k})
		ops = append(ops, Op{Kind: OpDelete, Key: k + 1})
	}
	res, err = pm.ApplyBatch(ops)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(ops); i += 2 {
		get, del := res[i], res[i+1]
		if !get.OK || get.Value != ops[i].Key*10 {
			t.Fatalf("get %d = %+v", ops[i].Key, get)
		}
		if !del.OK {
			t.Fatalf("delete %d missed", ops[i+1].Key)
		}
	}
	if pm.Len() != 50 {
		t.Fatalf("len after deletes = %d", pm.Len())
	}
	// Keys survive across batches on the same memory image.
	if v, ok := pm.Get(0); !ok || v != 0 {
		t.Fatalf("Get(0) = %d,%v", v, ok)
	}
	if _, ok := pm.Get(1); ok {
		t.Fatal("deleted key still present")
	}
}

func TestPartitionedMapRoutingSpread(t *testing.T) {
	pm := newPM(t, 8)
	counts := make([]int, 8)
	for k := uint64(0); k < 4000; k++ {
		counts[pm.owner(k)]++
	}
	for i, c := range counts {
		if c < 300 || c > 700 {
			t.Fatalf("partition %d holds %d of 4000 keys: router skewed", i, c)
		}
	}
}

// TestApplyBatchSkewCharged is the skew regression test: a batch whose
// keys all live on one partition must model strictly more transfer
// time than a uniform batch of equal size. Under the pre-fix model —
// average-bucket payload plus a lone DPU credited with the aggregate
// bandwidth — both batches cost exactly the same and hot partitions
// were free.
func TestApplyBatchSkewCharged(t *testing.T) {
	const n = 64
	probe := newPM(t, 4)
	byOwner := make([][]uint64, 4)
	for k := uint64(0); ; k++ {
		o := probe.owner(k)
		if len(byOwner[o]) < n {
			byOwner[o] = append(byOwner[o], k)
		}
		if len(byOwner[0]) == n && len(byOwner[1]) >= n/4 &&
			len(byOwner[2]) >= n/4 && len(byOwner[3]) >= n/4 {
			break
		}
	}
	hotKeys := byOwner[0][:n]
	var uniKeys []uint64
	for o := 0; o < 4; o++ {
		uniKeys = append(uniKeys, byOwner[o][:n/4]...)
	}

	run := func(keys []uint64) FleetStats {
		pm := newPM(t, 4)
		ops := make([]Op, len(keys))
		for i, k := range keys {
			ops[i] = Op{Kind: OpPut, Key: k, Value: k}
		}
		if _, err := pm.ApplyBatch(ops); err != nil {
			t.Fatal(err)
		}
		return pm.Stats()
	}
	hot := run(hotKeys)
	uni := run(uniKeys)
	if hot.TransferSeconds <= uni.TransferSeconds {
		t.Fatalf("100%%-hot batch transfers (%.6fs) must cost strictly more than uniform (%.6fs)",
			hot.TransferSeconds, uni.TransferSeconds)
	}
	// The hot batch pays exactly the worst-case-bucket payload over one
	// DPU's link; the uniform batch spreads it across four.
	wantHot := TransferSeconds(1, 24*n) + TransferSeconds(1, 16*n)
	if got := hot.TransferSeconds; got < wantHot-1e-12 || got > wantHot+1e-12 {
		t.Fatalf("hot batch transfers %.9fs, want %.9fs", got, wantHot)
	}
	wantUni := TransferSeconds(4, 24*n/4) + TransferSeconds(4, 16*n/4)
	if got := uni.TransferSeconds; got < wantUni-1e-12 || got > wantUni+1e-12 {
		t.Fatalf("uniform batch transfers %.9fs, want %.9fs", got, wantUni)
	}
}

// TestCrossDPUTransfer: the CPU-coordinated multi-DPU atomic update of
// §5's future-work sketch must conserve the total.
func TestCrossDPUTransfer(t *testing.T) {
	pm := newPM(t, 4)
	// Find two keys on different DPUs.
	a, b := uint64(1), uint64(2)
	for pm.owner(b) == pm.owner(a) {
		b++
	}
	if _, err := pm.ApplyBatch([]Op{
		{Kind: OpPut, Key: a, Value: 1000},
		{Kind: OpPut, Key: b, Value: 500},
	}); err != nil {
		t.Fatal(err)
	}
	if !move(t, pm, a, b, 300) {
		t.Fatal("transfer refused")
	}
	va, _ := pm.Get(a)
	vb, _ := pm.Get(b)
	if va != 700 || vb != 800 {
		t.Fatalf("balances = %d,%d want 700,800", va, vb)
	}
	// Underflow refused without changes.
	if move(t, pm, a, b, 10000) {
		t.Fatal("underflow accepted")
	}
	va, _ = pm.Get(a)
	vb, _ = pm.Get(b)
	if va != 700 || vb != 800 {
		t.Fatalf("refused transfer changed balances: %d,%d", va, vb)
	}
	// Missing key refused.
	if move(t, pm, 999999, a, 1) {
		t.Fatal("transfer from missing key accepted")
	}
}

// TestCrossDPUMovesCoalesced: a whole batch of cross-DPU moves costs a
// bounded number of coalesced fleet rounds (one gather, one commit, at
// most one execute round for moves that happen to be confined) — never
// four 331 µs CPU-mediated words per move — and conserves the total.
func TestCrossDPUMovesCoalesced(t *testing.T) {
	pm := newPM(t, 4)
	var ops []Op
	for k := uint64(0); k < 32; k++ {
		ops = append(ops, Op{Kind: OpPut, Key: k, Value: 1000})
	}
	if _, err := pm.ApplyBatch(ops); err != nil {
		t.Fatal(err)
	}
	before := pm.Stats()

	var txns []Txn
	for k := uint64(0); k < 16; k++ {
		txns = append(txns, moveTxn(k, k+16, 100))
	}
	txns = append(txns,
		moveTxn(0, 1, 100000), // underflow: refused
		moveTxn(424242, 0, 1), // missing key: refused
	)
	res, err := pm.ApplyTxns(txns)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if !res[i].Committed {
			t.Fatalf("move %d refused", i)
		}
	}
	if res[16].Committed || res[17].Committed {
		t.Fatalf("bad moves accepted: %+v", res[16:])
	}
	total := uint64(0)
	for k := uint64(0); k < 32; k++ {
		v, present := pm.Get(k)
		if !present {
			t.Fatalf("key %d lost", k)
		}
		total += v
	}
	if total != 32*1000 {
		t.Fatalf("total not conserved: %d", total)
	}
	after := pm.Stats()
	if pm.TxnsCoordinated == 0 {
		t.Fatal("no move crossed DPUs")
	}
	if got := after.Rounds - before.Rounds; got > 3 {
		t.Fatalf("coalesced batch took %d fleet rounds, want at most 3", got)
	}
	// The coalesced window must undercut the per-word §3.1 path: 4
	// CPU-mediated words per applied move.
	perWord := float64(4*16) * InterDPUWordLatencySeconds
	if got := after.WallSeconds - before.WallSeconds; got >= perWord {
		t.Fatalf("coalesced moves cost %.3f ms, per-word path would be %.3f ms", got*1e3, perWord*1e3)
	}

	// Empty batch is free.
	if res, err := pm.ApplyTxns(nil); err != nil || len(res) != 0 {
		t.Fatalf("empty batch: %v %v", res, err)
	}
	if pm.Stats() != after {
		t.Fatal("empty batch charged time")
	}

	// A batch where every move is refused still paid its rounds, and
	// BatchSeconds must reflect that window's delta.
	if move(t, pm, 424242, 0, 1) {
		t.Fatal("move from a missing key accepted")
	}
	if pm.BatchSeconds <= 0 {
		t.Fatal("refused-only batch did not account its window")
	}
}

// TestPartitionedMapPipelineBeatsLockstep streams the same batch
// sequence through both modes: identical functional results, strictly
// smaller modeled wall clock pipelined.
func TestPartitionedMapPipelineBeatsLockstep(t *testing.T) {
	run := func(mode ExecMode) (FleetStats, []OpResult) {
		pm, err := NewPartitionedMap(PartitionedMapConfig{
			DPUs: 4, Buckets: 64, Capacity: 512, Tasklets: 4,
			STM: core.Config{Algorithm: core.NOrec}, Mode: mode,
		})
		if err != nil {
			t.Fatal(err)
		}
		var last []OpResult
		for b := 0; b < 6; b++ {
			var ops []Op
			for k := uint64(0); k < 64; k++ {
				if b == 0 {
					ops = append(ops, Op{Kind: OpPut, Key: k, Value: k})
				} else {
					ops = append(ops, Op{Kind: OpGet, Key: k})
				}
			}
			if last, err = pm.ApplyBatch(ops); err != nil {
				t.Fatal(err)
			}
		}
		return pm.Stats(), last
	}
	lock, lockRes := run(Lockstep)
	pipe, pipeRes := run(Pipelined)
	if pipe.WallSeconds >= lock.WallSeconds {
		t.Fatalf("pipelined serving (%.6fs) must beat lockstep (%.6fs)", pipe.WallSeconds, lock.WallSeconds)
	}
	if d := pipe.LockstepSeconds - lock.WallSeconds; d > 1e-9 || d < -1e-9 {
		t.Fatalf("lockstep-equivalent mismatch: %.9f vs %.9f", pipe.LockstepSeconds, lock.WallSeconds)
	}
	for i := range lockRes {
		if lockRes[i] != pipeRes[i] {
			t.Fatalf("mode changed results at %d: %+v vs %+v", i, lockRes[i], pipeRes[i])
		}
	}
}

func TestPartitionedMapDeterministic(t *testing.T) {
	run := func() (int, float64) {
		pm := newPM(t, 3)
		var ops []Op
		for k := uint64(0); k < 60; k++ {
			ops = append(ops, Op{Kind: OpPut, Key: k, Value: k})
		}
		if _, err := pm.ApplyBatch(ops); err != nil {
			t.Fatal(err)
		}
		return pm.Len(), pm.BatchSeconds
	}
	l1, s1 := run()
	l2, s2 := run()
	if l1 != l2 || s1 != s2 {
		t.Fatalf("nondeterministic store: (%d,%g) vs (%d,%g)", l1, s1, l2, s2)
	}
}

package host

import (
	"testing"

	"pimstm/internal/core"
)

func newDirPM(t *testing.T, dpus int) (*PartitionedMap, *Directory) {
	t.Helper()
	dir := NewDirectory(dpus)
	pm, err := NewPartitionedMap(PartitionedMapConfig{
		DPUs: dpus, Buckets: 64, Capacity: 512, Tasklets: 4,
		STM: core.Config{Algorithm: core.NOrec}, Placement: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	return pm, dir
}

// keysOwnedBy finds n keys homed on the given DPU by the static hash.
func keysOwnedBy(p Placement, dpu, n int) []uint64 {
	var out []uint64
	for k := uint64(0); len(out) < n; k++ {
		if p.Owner(k) == dpu {
			out = append(out, k)
		}
	}
	return out
}

func TestPlacementValidation(t *testing.T) {
	if _, err := NewPartitionedMap(PartitionedMapConfig{
		DPUs: 4, Buckets: 64, Capacity: 64, Tasklets: 4,
		Placement: NewDirectory(2),
	}); err == nil {
		t.Fatal("placement/fleet size mismatch accepted")
	}
}

// TestDirectoryRoutesLikeStaticWhenEmpty: an empty directory is the
// static hash — same owners, no replicas — so the two placements are
// interchangeable until the control plane acts.
func TestDirectoryRoutesLikeStaticWhenEmpty(t *testing.T) {
	static := NewStaticHash(8)
	dir := NewDirectory(8)
	for k := uint64(0); k < 2000; k++ {
		if static.Owner(k) != dir.Owner(k) {
			t.Fatalf("key %d: static owner %d, directory owner %d", k, static.Owner(k), dir.Owner(k))
		}
		if static.Replicas(k) != nil || dir.Replicas(k) != nil {
			t.Fatalf("key %d replicated out of nowhere", k)
		}
	}
}

// TestMigrateKeys: migration rehomes keys through two paid fleet
// rounds, conserves the data, and routes subsequent traffic to the new
// owner.
func TestMigrateKeys(t *testing.T) {
	pm, dir := newDirPM(t, 4)
	keys := keysOwnedBy(dir, 0, 6)
	var ops []Op
	for i, k := range keys {
		ops = append(ops, Op{Kind: OpPut, Key: k, Value: uint64(100 + i)})
	}
	if _, err := pm.ApplyBatch(ops); err != nil {
		t.Fatal(err)
	}
	before := pm.Stats()

	moves := map[uint64]int{keys[0]: 2, keys[1]: 2, keys[2]: 3}
	if err := pm.MigrateKeys(moves); err != nil {
		t.Fatal(err)
	}
	after := pm.Stats()
	if got := after.Rounds - before.Rounds; got != 2 {
		t.Fatalf("migration took %d rounds, want 2 (gather + scatter)", got)
	}
	if after.TransferSeconds <= before.TransferSeconds {
		t.Fatal("migration transfers modeled as free")
	}
	if pm.BatchSeconds <= 0 {
		t.Fatal("migration window not accounted in BatchSeconds")
	}
	for k, dst := range moves {
		if dir.Owner(k) != dst {
			t.Fatalf("key %d owned by %d, want %d", k, dir.Owner(k), dst)
		}
	}
	if pm.Len() != len(keys) {
		t.Fatalf("len = %d after migration, want %d", pm.Len(), len(keys))
	}
	for i, k := range keys {
		if v, ok := pm.Get(k); !ok || v != uint64(100+i) {
			t.Fatalf("key %d = %d,%v after migration", k, v, ok)
		}
	}

	// Batches keep working against the overridden homes.
	res, err := pm.ApplyBatch([]Op{{Kind: OpGet, Key: keys[0]}, {Kind: OpPut, Key: keys[1], Value: 7}})
	if err != nil {
		t.Fatal(err)
	}
	if !res[0].OK || res[0].Value != 100 {
		t.Fatalf("get after migration = %+v", res[0])
	}
	if v, _ := pm.Get(keys[1]); v != 7 {
		t.Fatalf("put after migration stored %d", v)
	}

	// A no-op move (already home) runs zero rounds.
	pre := pm.Stats().Rounds
	if err := pm.MigrateKeys(map[uint64]int{keys[0]: 2}); err != nil {
		t.Fatal(err)
	}
	if pm.Stats().Rounds != pre {
		t.Fatal("no-op migration charged rounds")
	}

	// Migration needs the directory.
	static := newPM(t, 4)
	if err := static.MigrateKeys(map[uint64]int{1: 0}); err == nil {
		t.Fatal("migration accepted on static placement")
	}
}

// TestReplicateKeysSpreadsReads: a promoted key's reads round-robin
// over owner + copies, shrinking the worst-case bucket — the scatter of
// an all-hot-key batch is charged over three involved DPUs instead of
// one link-bound DPU.
func TestReplicateKeysSpreadsReads(t *testing.T) {
	pm, dir := newDirPM(t, 4)
	k := keysOwnedBy(dir, 0, 1)[0]
	if _, err := pm.ApplyBatch([]Op{{Kind: OpPut, Key: k, Value: 42}}); err != nil {
		t.Fatal(err)
	}
	before := pm.Stats()
	if err := pm.ReplicateKeys(map[uint64][]int{k: {1, 2}}); err != nil {
		t.Fatal(err)
	}
	after := pm.Stats()
	if got := after.Rounds - before.Rounds; got != 2 {
		t.Fatalf("promotion took %d rounds, want 2", got)
	}
	if after.TransferSeconds <= before.TransferSeconds {
		t.Fatal("promotion transfers modeled as free")
	}
	if got := dir.Replicas(k); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("replicas = %v", got)
	}
	if pm.Len() != 1 {
		t.Fatalf("len = %d with 2 copies, want 1 distinct key", pm.Len())
	}

	// 30 gets of the hot key spread 10/10/10 over owner+copies: the
	// batch charges three involved DPUs at 10 ops each, not one
	// link-bound DPU at 30.
	pre := pm.Stats().TransferSeconds
	ops := make([]Op, 30)
	for i := range ops {
		ops[i] = Op{Kind: OpGet, Key: k}
	}
	res, err := pm.ApplyBatch(ops)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if !r.OK || r.Value != 42 {
			t.Fatalf("replicated get %d = %+v", i, r)
		}
	}
	want := TransferSeconds(3, 24*10) + TransferSeconds(3, 16*10)
	if got := pm.Stats().TransferSeconds - pre; got < want-1e-12 || got > want+1e-12 {
		t.Fatalf("replicated batch charged %.9fs, want %.9fs spread over 3 DPUs", got, want)
	}

	// The same batch against an unreplicated single-copy key would pay
	// the lone link.
	lone := TransferSeconds(1, 24*30) + TransferSeconds(1, 16*30)
	if want >= lone {
		t.Fatalf("spread (%.9fs) should undercut the lone link (%.9fs)", want, lone)
	}
}

// TestReplicaWriteProtocol drives the three write paths: a lone put
// writes through and the copies stay fresh; a multi-put batch leaves
// them stale until a later batch refreshes them from the owner; a
// delete invalidates the copies physically and in the directory.
func TestReplicaWriteProtocol(t *testing.T) {
	pm, dir := newDirPM(t, 4)
	k := keysOwnedBy(dir, 0, 1)[0]
	if _, err := pm.ApplyBatch([]Op{{Kind: OpPut, Key: k, Value: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := pm.ReplicateKeys(map[uint64][]int{k: {1, 2}}); err != nil {
		t.Fatal(err)
	}

	// Lone put: write-through, copies stay fresh and serve the new
	// value immediately.
	if _, err := pm.ApplyBatch([]Op{{Kind: OpPut, Key: k, Value: 2}}); err != nil {
		t.Fatal(err)
	}
	if len(dir.Replicas(k)) != 2 {
		t.Fatalf("write-through dropped replicas: %v", dir.Replicas(k))
	}
	res, err := pm.ApplyBatch([]Op{{Kind: OpGet, Key: k}, {Kind: OpGet, Key: k}, {Kind: OpGet, Key: k}})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if !r.OK || r.Value != 2 {
			t.Fatalf("get %d after write-through = %+v", i, r)
		}
	}

	// Multi-put batch: the puts serialize on one owner tasklet, so the
	// batch's last value wins deterministically, the copies get it in
	// the same round, and they stay fresh.
	if _, err := pm.ApplyBatch([]Op{{Kind: OpPut, Key: k, Value: 3}, {Kind: OpPut, Key: k, Value: 4}}); err != nil {
		t.Fatal(err)
	}
	if len(dir.Replicas(k)) != 2 {
		t.Fatalf("multi-put dropped the copies: %v", dir.Replicas(k))
	}
	if v, ok := pm.Get(k); !ok || v != 4 {
		t.Fatalf("owner has %d,%v after multi-put, want the batch's last value 4", v, ok)
	}
	res, err = pm.ApplyBatch([]Op{{Kind: OpGet, Key: k}, {Kind: OpGet, Key: k}, {Kind: OpGet, Key: k}})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if !r.OK || r.Value != 4 {
			t.Fatalf("get %d after multi-put = %+v, want 4 from every copy", i, r)
		}
	}

	// Delete: copies die with the key, in the same round.
	if _, err := pm.ApplyBatch([]Op{{Kind: OpDelete, Key: k}}); err != nil {
		t.Fatal(err)
	}
	if dir.Replicas(k) != nil || dir.allReplicas(k) != nil {
		t.Fatal("delete left replica bookkeeping behind")
	}
	if pm.Len() != 0 {
		t.Fatalf("len = %d after delete, want 0 (copies deleted too)", pm.Len())
	}
	if _, ok := pm.Get(k); ok {
		t.Fatal("deleted key still on owner")
	}
}

// TestTransferMarksReplicasStale: cross-DPU transfers change values
// underneath the copies; the copies must stop serving until refreshed.
func TestTransferMarksReplicasStale(t *testing.T) {
	pm, dir := newDirPM(t, 4)
	a := keysOwnedBy(dir, 0, 1)[0]
	b := keysOwnedBy(dir, 1, 1)[0]
	if _, err := pm.ApplyBatch([]Op{
		{Kind: OpPut, Key: a, Value: 1000},
		{Kind: OpPut, Key: b, Value: 500},
	}); err != nil {
		t.Fatal(err)
	}
	if err := pm.ReplicateKeys(map[uint64][]int{a: {2, 3}}); err != nil {
		t.Fatal(err)
	}
	if !move(t, pm, a, b, 300) {
		t.Fatal("transfer refused")
	}
	if dir.Replicas(a) != nil {
		t.Fatal("transfer left stale copies serving")
	}
	// The next batch refreshes and every read sees the moved total.
	res, err := pm.ApplyBatch([]Op{{Kind: OpGet, Key: a}, {Kind: OpGet, Key: a}})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if !r.OK || r.Value != 700 {
			t.Fatalf("get %d after transfer = %+v, want 700", i, r)
		}
	}
	if len(dir.Replicas(a)) != 2 {
		t.Fatalf("copies not refreshed after transfer: %v", dir.Replicas(a))
	}
	if s := dir.Stats(); s.Invalidations < 1 || s.Refreshes < 1 {
		t.Fatalf("directory stats missed the stale cycle: %+v", s)
	}
	res, err = pm.ApplyBatch([]Op{{Kind: OpGet, Key: a}, {Kind: OpGet, Key: a}, {Kind: OpGet, Key: a}})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if !r.OK || r.Value != 700 {
			t.Fatalf("replicated get %d after refresh = %+v", i, r)
		}
	}
}

// TestBatchSecondsPerBatchDelta is the BatchSeconds audit regression:
// the field is the wall-clock delta of the last batch, not the
// cumulative fleet clock. Under the pre-audit semantics the second
// batch reports the whole run and this test fails.
func TestBatchSecondsPerBatchDelta(t *testing.T) {
	pm := newPM(t, 4)
	var ops []Op
	for k := uint64(0); k < 64; k++ {
		ops = append(ops, Op{Kind: OpPut, Key: k, Value: k})
	}
	if _, err := pm.ApplyBatch(ops); err != nil {
		t.Fatal(err)
	}
	first := pm.BatchSeconds
	if first <= 0 {
		t.Fatal("first batch not accounted")
	}
	if _, err := pm.ApplyBatch(ops); err != nil {
		t.Fatal(err)
	}
	second := pm.BatchSeconds
	wall := pm.Stats().WallSeconds
	if second <= 0 {
		t.Fatal("second batch not accounted")
	}
	if second >= wall {
		t.Fatalf("BatchSeconds %.9fs is cumulative (wall %.9fs), want the per-batch delta", second, wall)
	}
	// The deltas telescope onto the fleet clock.
	if sum := first + second; sum < wall-1e-12 || sum > wall+1e-12 {
		t.Fatalf("deltas sum to %.9fs, wall is %.9fs", sum, wall)
	}

	// Empty batches are free under delta semantics.
	if _, err := pm.ApplyTxns(nil); err != nil {
		t.Fatal(err)
	}
	if pm.BatchSeconds != 0 {
		t.Fatalf("empty batch reported %.9fs", pm.BatchSeconds)
	}
}

// Partitioned key-value store across a fleet of simulated DPUs — the
// future-work direction of the paper's §5: keys are hash-routed to
// owner DPUs, batches execute with transactional tasklet parallelism
// inside each DPU, and cross-DPU atomic transfers are coordinated by
// the CPU in coalesced batches while the fleet is idle.
//
// The store runs on the host.Fleet pipeline: in the default Pipelined
// mode the host streams the next batch down (and the previous results
// up) while the DPUs execute the current one, so most transfer time
// hides behind the kernels; -lockstep shows the serialized baseline.
//
//	go run ./examples/kvstore -dpus 8 -keys 2000
//	go run ./examples/kvstore -dpus 8 -keys 2000 -lockstep
package main

import (
	"flag"
	"fmt"
	"log"

	"pimstm/internal/core"
	"pimstm/internal/host"
)

func main() {
	var (
		dpus     = flag.Int("dpus", 8, "fleet size")
		keys     = flag.Int("keys", 2000, "keys to load")
		batches  = flag.Int("batches", 4, "read batches to pipeline")
		stm      = flag.String("stm", "norec", "STM algorithm inside each DPU")
		lockstep = flag.Bool("lockstep", false, "disable transfer pipelining")
	)
	flag.Parse()

	alg, err := core.ParseAlgorithm(*stm)
	if err != nil {
		log.Fatal(err)
	}
	mode := host.Pipelined
	if *lockstep {
		mode = host.Lockstep
	}
	pm, err := host.NewPartitionedMap(host.PartitionedMapConfig{
		DPUs: *dpus, Buckets: 1024, Capacity: 8192, Tasklets: 11,
		STM: core.Config{Algorithm: alg}, Mode: mode,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Load phase: one batch of puts, routed across the fleet.
	ops := make([]host.Op, *keys)
	for k := range ops {
		ops[k] = host.Op{Kind: host.OpPut, Key: uint64(k), Value: 1000}
	}
	if _, err := pm.ApplyBatch(ops); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Partitioned KV store — %d DPUs, %v inside each DPU, %v transfers\n",
		*dpus, alg, mode)
	fmt.Printf("  loaded %d keys (store size %d)\n", *keys, pm.Len())

	// Read batches, streamed through the pipeline back to back.
	hits := 0
	for b := 0; b < *batches; b++ {
		ops = ops[:0]
		for k := 0; k < 100; k++ {
			ops = append(ops, host.Op{Kind: host.OpGet, Key: uint64(b*100 + k)})
		}
		res, err := pm.ApplyBatch(ops)
		if err != nil {
			log.Fatal(err)
		}
		for _, r := range res {
			if r.OK {
				hits++
			}
		}
	}
	fmt.Printf("  %d read batches: %d/%d hits\n", *batches, hits, *batches*100)

	// Cross-DPU atomic transfers: each a 2-op transaction (guarded debit,
	// credit), coalesced into one quiescent window instead of one 331 µs
	// CPU-mediated word at a time.
	res, err := pm.ApplyTxns([]host.Txn{
		host.NewTxn(host.Op{Kind: host.OpSub, Key: 1, Value: 250}, host.Op{Kind: host.OpAdd, Key: 2, Value: 250}),
		host.NewTxn(host.Op{Kind: host.OpSub, Key: 3, Value: 100}, host.Op{Kind: host.OpAdd, Key: 4, Value: 100}),
	})
	if err != nil {
		log.Fatal(err)
	}
	oks := []bool{res[0].Committed, res[1].Committed}
	v1, _ := pm.Get(1)
	v2, _ := pm.Get(2)
	fmt.Printf("  coalesced cross-DPU transfers: applied %v; key 1 → %d, key 2 → %d (total conserved: %v)\n",
		oks, v1, v2, v1+v2 == 2000)

	s := pm.Stats()
	fmt.Printf("  modeled time: %.3f ms wall (launch %.3f + quiescent %.3f; transfers %.3f engine-ms)\n",
		s.WallSeconds*1e3, s.LaunchSeconds*1e3, s.QuiescentSeconds*1e3, s.TransferSeconds*1e3)
	fmt.Printf("  lockstep-equivalent: %.3f ms → pipelining gain %.2fx\n",
		s.LockstepSeconds*1e3, s.LockstepSeconds/s.WallSeconds)
}

package main

import (
	"time"

	"pimstm/internal/dpu"
	"pimstm/internal/harness"
	"pimstm/internal/host"
)

// probesChild is the pseudo-workload name of the layer-probe child.
const probesChild = "probes"

// mramReadReferenceNs is the one reference figure the repo holds: a
// 64-bit local MRAM read takes 231 ns on the UPMEM system (paper §3.1).
// Everything else in the cost model is unvalidated, so no other error
// figure is printed.
const mramReadReferenceNs = 231.0

// probeReps and probeMinSeconds size a probe: five repetitions of at
// least a fifth of a second each (so at least a second per probe), the
// best-half mean reported. Smoke runs do one short repetition.
const (
	probeReps       = 5
	probeMinSeconds = 0.2
)

// probe measures the real cost of one operation: body(n) performs the
// operation n times and returns how long that took (excluding any
// set-up it does itself). The batch size doubles until one repetition
// lasts probeMinSeconds.
func (c *child) probe(name string, scale float64, body func(n int) time.Duration) {
	reps, minSec := probeReps, probeMinSeconds
	if c.smoke {
		reps, minSec = 1, 0.005
	}
	n := 1
	for {
		if d := body(n); d.Seconds() >= minSec/2 || n >= 1<<24 {
			break
		}
		n *= 2
	}
	per := make([]float64, reps)
	for i := range per {
		per[i] = body(n*2).Seconds() / float64(n*2) * scale
	}
	c.res.Real[name] = bestHalfMean(per, "lower")
}

// runProbes runs the per-layer microbenchmarks ROADMAP item 1 asks for.
// They stay out of the end-to-end set: a probe says what one layer call
// costs, a workload says whether that cost matters.
func runProbes(c *child) {
	// dpu: one simulated memory access — a pure Load64 loop, so all the
	// time is the tasklet scheduler's (yield, pick, resume). One tasklet
	// is the case a run-ahead yield would never hand off; eleven the case
	// it almost always must.
	access := func(tasklets int) func(n int) time.Duration {
		return func(n int) time.Duration {
			d := dpu.New(dpu.Config{MRAMSize: 1 << 20})
			a := d.MustAlloc(dpu.MRAM, 8, 8)
			per := (n + tasklets - 1) / tasklets
			progs := make([]func(*dpu.Tasklet), tasklets)
			for i := range progs {
				progs[i] = func(t *dpu.Tasklet) {
					for k := 0; k < per; k++ {
						t.Load64(a)
					}
				}
			}
			t0 := time.Now()
			if _, err := d.Run(progs); err != nil {
				panic(err)
			}
			return time.Since(t0) * time.Duration(n) / time.Duration(per*tasklets)
		}
	}
	c.probe("dpu.probe_access_ns_t1", 1e9, access(1))
	c.probe("dpu.probe_access_ns_t11", 1e9, access(11))

	// dpu: construction at the sizes the repo uses (8 MiB in every
	// harness and store, 64 MiB the hardware default) and a Reset of a
	// 64 MiB DPU.
	newDPU := func(size int) func(n int) time.Duration {
		return func(n int) time.Duration {
			t0 := time.Now()
			for i := 0; i < n; i++ {
				sinkDPU = dpu.New(dpu.Config{MRAMSize: size})
			}
			return time.Since(t0)
		}
	}
	c.probe("dpu.probe_new_ms_8m", 1e3, newDPU(8<<20))
	c.probe("dpu.probe_new_ms_64m", 1e3, newDPU(64<<20))
	c.probe("dpu.probe_reset_ms", 1e3, func(n int) time.Duration {
		d := dpu.New(dpu.Config{})
		t0 := time.Now()
		for i := 0; i < n; i++ {
			d.Reset()
		}
		return time.Since(t0)
	})
	c.res.Modeled["dpu.probe_mram_read_ns"] = harness.LocalMRAMReadLatency()

	// host.Fleet: one Round with an empty Program on 8 and 64 DPUs — the
	// fan-out, join and modeled-clock bookkeeping every batch pays.
	round := func(dpus int) func(n int) time.Duration {
		return func(n int) time.Duration {
			f, err := host.NewFleet(host.FleetOptions{DPUs: dpus, Exact: true}, host.Pipelined, nil)
			if err != nil {
				panic(err)
			}
			spec := host.RoundSpec{ScatterBytes: 64, GatherBytes: 64, Program: func(int, *dpu.DPU) (float64, error) { return 0, nil }}
			t0 := time.Now()
			for i := 0; i < n; i++ {
				if err := f.Round(spec); err != nil {
					panic(err)
				}
			}
			return time.Since(t0)
		}
	}
	c.probe("fleet.probe_round_us_8", 1e6, round(8))
	c.probe("fleet.probe_round_us_64", 1e6, round(64))

	// host.Scheduler: Admit (and the Drain it eventually forces) alone,
	// on synthetic two-op transactions arriving 10 µs apart, with the
	// benchmark's serving bounds.
	admit := func(mk func() host.Scheduler) func(n int) time.Duration {
		return func(n int) time.Duration {
			s := mk()
			txn := host.NewTxn(host.Op{Kind: host.OpGet, Key: 1}, host.Op{Kind: host.OpPut, Key: 2, Value: 3})
			t0 := time.Now()
			for i := 0; i < n; i++ {
				sinkBatches = s.Admit(host.SchedTxn{Txn: txn, Arrival: float64(i) * 10e-6})
			}
			sinkBatches = s.Drain()
			return time.Since(t0)
		}
	}
	c.probe("scheduler.probe_admit_ns", 1e9, admit(func() host.Scheduler {
		return host.NewFIFOScheduler(serveMaxBatch, serveMaxDelay)
	}))
	c.probe("scheduler.probe_admit_ns_lane", 1e9, admit(func() host.Scheduler {
		lanes := serveSpec{MaxBatch: serveMaxBatch, MaxDelaySeconds: serveMaxDelay}.lanes()
		lanes.Classify = func(t host.Txn) host.Lane { return host.Lane(1 + t.Ops[0].Key%2) }
		return host.NewLaneScheduler(lanes)
	}))
}

// Sinks keep probe results alive so the compiler cannot drop the calls.
var (
	sinkDPU     *dpu.DPU
	sinkBatches []host.SchedBatch
)

package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pimstm/internal/core"
	"pimstm/internal/host"
)

// These tests pin the committed serving artifacts byte-for-byte: they
// regenerate the full default sweeps into a temp file and compare
// against the repository copies. BENCH_serve.json is produced entirely
// by the default FIFOScheduler, so the pin proves the scheduler
// extraction preserves the historical serving path bit-for-bit;
// BENCH_txnserve.json pins both the FIFO rows (same guarantee) and the
// lane rows (the scheduler axis itself is reproducible). Regenerating
// an artifact deliberately (make serve / make txnserve) updates the
// committed file and keeps the pin honest.

// repoArtifact reads a committed artifact from the repository root
// (two levels up from this package).
func repoArtifact(t *testing.T, name string) string {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("..", "..", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

// TestServeArtifactPinned: the default serve sweep — the options
// mirror the pimstm-bench flag defaults — reproduces the committed
// BENCH_serve.json exactly under the default FIFOScheduler.
func TestServeArtifactPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("full default sweep")
	}
	out := filepath.Join(t.TempDir(), "serve.json")
	_, err := runServe(serveOptions{ReadPct: 90, Out: out}, &strings.Builder{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if want := repoArtifact(t, "BENCH_serve.json"); string(got) != want {
		t.Fatal("regenerated BENCH_serve.json differs from the committed artifact: the default FIFO serving path changed (regenerate with `make serve` if intentional)")
	}
}

// TestTxnServeArtifactPinned: the default txnserve sweep reproduces
// the committed BENCH_txnserve.json exactly — FIFO rows pin the
// default path, lane rows pin the scheduler axis.
func TestTxnServeArtifactPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("full default sweep")
	}
	out := filepath.Join(t.TempDir(), "txnserve.json")
	_, err := runTxnServe(txnServeOptions{Out: out}, &strings.Builder{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if want := repoArtifact(t, "BENCH_txnserve.json"); string(got) != want {
		t.Fatal("regenerated BENCH_txnserve.json differs from the committed artifact: the txn serving path changed (regenerate with `make txnserve` if intentional)")
	}
}

// TestScaleArtifactPinned: every modeled field of the default scale
// sweep equals the committed BENCH_scale.json. The artifact's host_*
// fields are this machine's real wall clock, so the file cannot be
// pinned byte-for-byte like the others; the test serves each cell once
// and compares the scenarios with those fields cleared.
func TestScaleArtifactPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("full default sweep")
	}
	var want scaleReport
	if err := json.Unmarshal([]byte(repoArtifact(t, "BENCH_scale.json")), &want); err != nil {
		t.Fatal(err)
	}
	var opt scaleOptions
	opt.fill()
	if len(want.Scenarios) != len(opt.Fleets)*len(opt.Skews) {
		t.Fatalf("committed artifact holds %d scenarios, default sweep has %d",
			len(want.Scenarios), len(opt.Fleets)*len(opt.Skews))
	}
	modeled := func(sc scaleScenario) scaleScenario {
		sc.HostWorkers, sc.HostWallSeconds, sc.HostOpsPerSecondReal = 0, 0, 0
		return sc
	}
	i := 0
	for _, n := range opt.Fleets {
		for _, skew := range opt.Skews {
			got, err := runScaleCell(n, skew, opt, 1)
			if err != nil {
				t.Fatal(err)
			}
			if modeled(got) != modeled(want.Scenarios[i]) {
				t.Fatalf("%d DPUs zipf %g: modeled fields moved (regenerate with `make scale` if intentional):\n got %+v\nwant %+v",
					n, skew, modeled(got), modeled(want.Scenarios[i]))
			}
			i++
		}
	}
}

// TestServeExplicitFIFOMatchesDefault: a Serve run with an explicit
// FIFOScheduler factory is identical to the nil-scheduler default the
// serve experiment's cells use, so the BENCH_serve.json pin really
// covers the extracted policy and not a divergent default.
func TestServeExplicitFIFOMatchesDefault(t *testing.T) {
	run := func(factory func() host.Scheduler) host.ServeResult {
		res, err := host.Serve(host.ServeConfig{
			Map: host.PartitionedMapConfig{
				DPUs: 2, Tasklets: 8,
				STM: core.Config{Algorithm: core.NOrec}, Mode: host.Pipelined,
			},
			Submit: host.SubmitterConfig{MaxBatch: 32, MaxDelaySeconds: 300e-6},
			Traffic: host.TrafficConfig{
				Ops: 300, Rate: 2e5, ReadPct: 90, Keyspace: 128, ZipfS: 1.2, Seed: 1,
			},
			Scheduler: factory,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	def := run(nil)
	exp := run(func() host.Scheduler { return host.NewFIFOScheduler(32, 300e-6) })
	def.ZeroHostClock()
	exp.ZeroHostClock()
	if !reflect.DeepEqual(def, exp) {
		t.Fatalf("explicit FIFOScheduler diverged from the nil default:\n%+v\n%+v", def, exp)
	}
	if def.Ops != 300 || def.Batches == 0 {
		t.Fatalf("degenerate run: %+v", def)
	}
}

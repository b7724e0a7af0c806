package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"math"
	"path/filepath"
	"runtime"
	"time"
)

// childResult is what one repetition reports to the parent on its
// standard output: one repetition of one workload in one fresh process.
type childResult struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	// Real holds real-clock values: wall_s, setup_s, and the summed
	// duration of every span name as "<span>_s". They differ run to run.
	Real map[string]float64 `json:"real"`
	// Modeled holds everything that is a pure function of the seed:
	// modeled-clock metrics and counts from exported stats. Digest folds
	// in the per-cell / per-transaction detail behind them. Two
	// repetitions with one seed must report identical Modeled and
	// Digest; the parent counts a mismatch as a failure.
	Modeled map[string]float64 `json:"modeled"`
	Digest  string             `json:"digest"`
	// Work is the number of work units done (committed STM transactions
	// on stm_*, served operations otherwise), the numerator of
	// real_ops_per_s.
	Work     int64  `json:"work"`
	WorkUnit string `json:"work_unit"`
	// Attempted counts checked outcomes (transactions, plus cells or
	// invariant checks); Failed those that errored or failed a check.
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
	// LatencySamples is how many per-transaction latencies are behind
	// modeled_p50_s / modeled_p99_s.
	LatencySamples int           `json:"latency_samples,omitempty"`
	Ladder         []ladderStep  `json:"ladder,omitempty"`
	Trace          *traceSummary `json:"trace,omitempty"`
}

// ladderStep is one rate of a workload's fixed SLO ladder.
type ladderStep struct {
	Rate     float64 `json:"rate"`
	Txns     int     `json:"txns"`
	P99All   float64 `json:"p99_all_s"`
	P99Tail  float64 `json:"p99_last_tenth_s"`
	MeetsSLO bool    `json:"meets_slo"`
}

// child is the state of one repetition.
type child struct {
	seed  uint64
	smoke bool
	start time.Time
	tr    *tracer // nil unless this is the traced run
	root  int     // root span, which every top-level span hangs under

	res    childResult
	digest hash.Hash
}

func newChild(workload string, seed uint64, smoke, traced bool) *child {
	c := &child{seed: seed, smoke: smoke, start: time.Now(), digest: sha256.New()}
	c.res = childResult{
		Workload: workload, Seed: seed,
		Real: map[string]float64{}, Modeled: map[string]float64{},
	}
	if traced {
		c.tr = newTracer(c.start)
		c.root = c.tr.begin("perf.child", -1, 0, 0)
	}
	return c
}

// timed runs f as one call into a layer, as a span under the root.
func (c *child) timed(name string, req int, f func()) {
	c.record(span{Name: name, Parent: c.root, Req: req}, f)
}

// record runs f inside the span s: its duration is added to
// Real["<name>_s"] always, and the span is kept in the traced run.
func (c *child) record(s span, f func()) {
	s.StartNs = int64(time.Since(c.start))
	f()
	s.EndNs = int64(time.Since(c.start))
	c.res.Real[s.Name+"_s"] += float64(s.EndNs-s.StartNs) / 1e9
	if c.tr != nil {
		c.tr.add(s)
	}
}

// fail records one failed check; failN n failures behind one message.
func (c *child) fail(format string, args ...any) { c.failN(1, format, args...) }

func (c *child) failN(n int, format string, args ...any) {
	c.res.Failed += int64(n)
	if len(c.res.Errors) < 8 {
		c.res.Errors = append(c.res.Errors, fmt.Sprintf(format, args...))
	}
}

// fold adds values to the repetition's modeled digest.
func (c *child) fold(vs ...float64) {
	buf := make([]byte, 0, 8*min(len(vs), 8192))
	for _, v := range vs {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		if len(buf) == cap(buf) {
			c.digest.Write(buf)
			buf = buf[:0]
		}
	}
	c.digest.Write(buf)
}

// finish closes the repetition: wall_s spans process start to here,
// setup_s sums the set-up spans.
func (c *child) finish(outdir string) error {
	for name := range setupSpans {
		c.res.Real["setup_s"] += c.res.Real[name+"_s"]
	}
	c.res.Digest = hex.EncodeToString(c.digest.Sum(nil)[:12])
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.res.Real["process.mallocs"] = float64(ms.Mallocs)
	c.res.Real["process.alloc_mb"] = float64(ms.TotalAlloc) / (1 << 20)
	c.res.Real["process.gc_cycles"] = float64(ms.NumGC)
	end := time.Since(c.start)
	c.res.Real["wall_s"] = end.Seconds()
	if c.tr != nil {
		c.tr.end(c.root, int64(end))
		sum := summarize(c.tr.spans)
		c.res.Trace = &sum
		c.res.Real["trace.wall_s"] = end.Seconds()
		c.res.Real["trace.coverage_frac"] = sum.CoverageFrac
		path := filepath.Join(outdir, "trace-"+c.res.Workload+".jsonl")
		if err := writeSpans(path, c.tr.spans); err != nil {
			return fmt.Errorf("writing %s: %w", path, err)
		}
	}
	return nil
}

func (c *child) emit(w io.Writer) error {
	return json.NewEncoder(w).Encode(c.res)
}

// runChild executes one repetition of the named workload (or its SLO
// ladder, or the layer probes) and prints the childResult.
func runChild(name string, seed uint64, smoke, traced, ladder bool, outdir string, w io.Writer) error {
	if name == probesChild {
		c := newChild(name, seed, smoke, false)
		runProbes(c)
		return c.emit(w)
	}
	def, ok := findWorkload(workloadTable(smoke), name)
	if !ok {
		return fmt.Errorf("unknown workload %q (valid: %v)", name, workloadNames())
	}
	c := newChild(name, seed, smoke, traced && !ladder)
	if ladder {
		if def.Serve != nil && len(def.Serve.Ladder) > 0 {
			if err := c.runLadder(def); err != nil {
				return err
			}
		}
		return c.emit(w)
	}
	if err := def.run(c, def); err != nil {
		return err
	}
	if err := c.finish(outdir); err != nil {
		return err
	}
	return c.emit(w)
}

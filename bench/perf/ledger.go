package main

import (
	"fmt"
	"io"
	"maps"
	"sort"
	"time"
)

// metricValue is one end-to-end metric of one workload. A real-clock
// metric's Value is the best-half mean of Reps, with the order
// statistics beside it; a modeled metric is a single exact value. Value
// is nil where the metric does not apply to the workload.
type metricValue struct {
	Value  *float64  `json:"value"`
	Unit   string    `json:"unit"`
	Clock  string    `json:"clock"`
	Better string    `json:"better"`
	Bound  float64   `json:"bound"`
	Min    float64   `json:"min,omitempty"`
	Q1     float64   `json:"q1,omitempty"`
	Median float64   `json:"median,omitempty"`
	Q3     float64   `json:"q3,omitempty"`
	Reps   []float64 `json:"reps,omitempty"`
	// RepsRaw are the repetitions as the clock read them, before the
	// machine-speed scaling (real-clock times and rates only).
	RepsRaw []float64 `json:"reps_raw,omitempty"`
}

// modeledBlock is everything a run reports on the modeled clock for one
// seed.
type modeledBlock struct {
	Seed    uint64             `json:"seed"`
	Digest  string             `json:"digest"`
	Metrics map[string]float64 `json:"metrics"`
}

func blockOf(r rep) modeledBlock {
	return modeledBlock{Seed: r.Seed, Digest: r.Digest, Metrics: maps.Clone(r.Modeled)}
}

func (a modeledBlock) equal(b modeledBlock) bool {
	return a.Digest == b.Digest && maps.Equal(a.Metrics, b.Metrics)
}

// workloadRow is one workload's row of the ledger.
type workloadRow struct {
	workloadDef
	WorkUnit string                 `json:"work_unit"`
	Work     int64                  `json:"work"`
	EndToEnd map[string]metricValue `json:"end_to_end"`
	// Modeled is the modeled block at the run's seed; HeldOut the same
	// at seed+1, recorded so a later claim can be checked on a seed not
	// used while writing it.
	Modeled        modeledBlock  `json:"modeled"`
	HeldOut        *modeledBlock `json:"modeled_held_out_seed,omitempty"`
	LatencySamples int           `json:"latency_samples,omitempty"`
	Ladder         []ladderStep  `json:"ladder,omitempty"`
	LadderNote     string        `json:"ladder_note,omitempty"`
	// PerLayer holds every per-layer metric: counts from the untraced
	// repetitions, times from the traced run, probes from the probe
	// child.
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	Trace     *traceSummary      `json:"trace,omitempty"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`

	reps, tracedReps []rep
	// fastestTraced indexes the traced repetition the per-layer times
	// come from.
	fastestTraced int
	// sloRate is the ladder's verdict, nil until the ladder ran.
	sloRate *float64
}

// ledger is the whole result of one invocation.
type ledger struct {
	Schema       int           `json:"schema"`
	Env          environment   `json:"env"`
	Noisy        bool          `json:"noisy"`
	CanaryMs     []float64     `json:"canary_ms"`
	CanaryRefMs  float64       `json:"canary_ref_ms"`
	CanarySpread float64       `json:"canary_spread"`
	Workloads    []workloadRow `json:"workloads"`
	// Warnings are findings that do not fail the run: a noisy machine,
	// trace overhead above a tenth, trace coverage under 95 %.
	Warnings []string `json:"warnings,omitempty"`
}

func (l *ledger) row(name string) *workloadRow {
	for i := range l.Workloads {
		if l.Workloads[i].Name == name {
			return &l.Workloads[i]
		}
	}
	return nil
}

// failed sums the failures over all rows.
func (l *ledger) failed() int64 {
	var n int64
	for _, w := range l.Workloads {
		n += w.Failed
	}
	return n
}

// measurer drives the children that fill a ledger.
type measurer struct {
	run  *runner
	seed uint64
}

// fail counts one failed check against a row.
func (w *workloadRow) fail(format string, args ...any) {
	w.Failed++
	w.Errors = append(w.Errors, fmt.Sprintf(format, args...))
}

// absorb adds one finished child's check counts to the row.
func (w *workloadRow) absorb(r rep) {
	w.Attempted += r.Attempted
	w.Failed += r.Failed
	w.Errors = append(w.Errors, r.Errors...)
}

// timedRep runs one untraced repetition and checks its modeled block
// against the first one's: a mismatch between repetitions is a failure.
func (m *measurer) timedRep(w *workloadRow) error {
	r, err := m.run.spawn(w.Name, m.seed, false, false)
	if err != nil {
		return err
	}
	w.absorb(r)
	if len(w.reps) == 0 {
		w.Modeled = blockOf(r)
		w.Work, w.WorkUnit, w.LatencySamples = r.Work, r.WorkUnit, r.LatencySamples
	} else {
		w.Attempted++
		if !w.Modeled.equal(blockOf(r)) {
			w.fail("modeled block of repetition %d differs from repetition 1 at the same seed", len(w.reps)+1)
		}
	}
	w.reps = append(w.reps, r)
	return nil
}

// heldOut records the modeled block at seed+1 and checks the seed
// reaches the inputs at all.
func (m *measurer) heldOut(w *workloadRow) error {
	r, err := m.run.spawn(w.Name, m.seed+1, false, false)
	if err != nil {
		return err
	}
	w.absorb(r)
	b := blockOf(r)
	w.HeldOut = &b
	w.Attempted++
	if b.Digest == w.Modeled.Digest {
		w.fail("seeds %d and %d gave the same modeled digest: the seed does not reach the inputs", m.seed, m.seed+1)
	}
	return nil
}

// ladder runs the workload's three-rate SLO ladder, once.
func (m *measurer) ladder(w *workloadRow) error {
	if w.Serve == nil || len(w.Serve.Ladder) == 0 {
		return nil
	}
	r, err := m.run.spawn(w.Name, m.seed, false, true)
	if err != nil {
		return err
	}
	w.absorb(r)
	w.Ladder = r.Ladder
	rate := r.Modeled["modeled_slo_rate"]
	w.sloRate = &rate
	top := r.Ladder[len(r.Ladder)-1]
	switch {
	case rate == 0:
		w.LadderNote = "no ladder rate meets the SLO"
	case top.MeetsSLO:
		w.LadderNote = "the top ladder rate meets the SLO: the sustainable rate lies above the ladder"
	default:
		w.LadderNote = "at least one ladder rate fails the SLO"
	}
	return nil
}

// traced runs n traced repetitions and fills the per-layer set from the
// fastest of them. probes is the probe child's result.
func (m *measurer) traced(w *workloadRow, probes rep, n int) error {
	for i := 0; i < n; i++ {
		r, err := m.run.spawn(w.Name, m.seed, true, false)
		if err != nil {
			return err
		}
		w.absorb(r)
		w.Attempted++
		if !w.Modeled.equal(blockOf(r)) {
			w.fail("modeled block of a traced run differs from the untraced repetitions")
		}
		w.tracedReps = append(w.tracedReps, r)
		if r.Real["wall_s"] < w.tracedReps[w.fastestTraced].Real["wall_s"] {
			w.fastestTraced = i
		}
	}
	best := w.tracedReps[w.fastestTraced]
	w.Trace = best.Trace
	w.PerLayer = map[string]float64{}
	for _, d := range perLayer {
		real, modeled := best.Real, w.Modeled.Metrics
		if isProbe(d.Name) {
			real, modeled = probes.Real, probes.Modeled
		}
		if d.Clock == clockModeled {
			w.PerLayer[d.Name] = modeled[d.Name]
		} else {
			w.PerLayer[d.Name] = real[d.Name]
		}
	}
	return nil
}

// realSeries extracts one real-clock end-to-end metric from every
// repetition, as the clock read it.
func realSeries(name string, reps []rep) []float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		switch name {
		case "cpu_s":
			xs[i] = r.CPUSeconds
		case "peak_rss_mb":
			xs[i] = r.PeakRSSMiB
		case "real_ops_per_s":
			// Work units per real second of running and verifying:
			// set-up is shown on its own and taken out here.
			xs[i] = float64(r.Work) / (r.Real["wall_s"] - r.Real["setup_s"])
		default:
			xs[i] = r.Real[name]
		}
	}
	return xs
}

// onReference restates a raw real-clock series on the reference
// machine: each repetition's time is multiplied by the machine's speed
// around it (a rate divided). Memory is not a matter of speed.
func onReference(d metricDef, raw []float64, reps []rep) []float64 {
	xs := make([]float64, len(raw))
	for i, x := range raw {
		switch d.Unit {
		case "s":
			xs[i] = x * reps[i].Speed
		case "1/s":
			xs[i] = x / reps[i].Speed
		default:
			xs[i] = x
		}
	}
	return xs
}

// settle computes the row's end-to-end metrics from what was measured.
func (w *workloadRow) settle() {
	w.EndToEnd = map[string]metricValue{}
	for _, d := range endToEnd {
		mv := metricValue{Unit: d.Unit, Clock: d.Clock, Better: d.Better, Bound: d.Bound}
		switch {
		case d.Name == "failed_frac":
			v := 0.0
			if w.Attempted > 0 {
				v = float64(w.Failed) / float64(w.Attempted)
			}
			mv.Value = &v
		case d.Name == "modeled_slo_rate":
			mv.Value = w.sloRate
		case d.Clock == clockModeled:
			if v, ok := w.Modeled.Metrics[d.Name]; ok {
				mv.Value = &v
			}
		default:
			mv.RepsRaw = realSeries(d.Name, w.reps)
			mv.Reps = onReference(d, mv.RepsRaw, w.reps)
			v := bestHalfMean(mv.Reps, d.Better)
			mv.Value = &v
			mv.Min, _ = minMax(mv.Reps)
			mv.Q1, mv.Median, mv.Q3 = quartiles(mv.Reps)
		}
		w.EndToEnd[d.Name] = mv
	}
	if len(w.tracedReps) > 0 {
		// Like with like: the best-half mean of the traced walls against
		// the best-half mean of the untraced ones, both on the reference
		// machine.
		wall, _ := findMetric(endToEnd, "wall_s")
		traced := bestHalfMean(onReference(wall, realSeries("wall_s", w.tracedReps), w.tracedReps), "lower")
		base := *w.EndToEnd["wall_s"].Value
		w.PerLayer["trace.overhead_frac"] = (traced - base) / base
		w.PerLayer["machine.speed"] = w.tracedReps[w.fastestTraced].Speed
	}
}

// plan says how much of the benchmark one invocation runs.
type plan struct {
	seed uint64
	// reps is the number of timed repetitions per workload; with seconds
	// set, repetitions go on past it until that much time has passed.
	reps    int
	seconds float64
	// quick is BENCHMARK.json's command: one workload inside a time
	// budget, so no held-out seed, one traced repetition instead of
	// tracedReps, and the ladder only when its metric is printed (with
	// trace).
	quick bool
	// trace adds the layer probes and the traced repetitions, which
	// fill the per-layer set.
	trace bool
}

// tracedReps is how many traced repetitions the full ledger runs per
// workload. One is not enough to tell tracing overhead from the
// machine's noise: a single traced run that met a slow phase read
// +29 % on a workload whose tracing costs under 1 %.
const tracedReps = 3

// fullLedger is the whole benchmark: interleaved timed repetitions,
// held-out seed, ladder, probes, traced run.
func fullLedger(run *runner, defs []workloadDef, p plan, out io.Writer) (*ledger, error) {
	m := &measurer{run: run, seed: p.seed}
	l := &ledger{Schema: 1, Env: currentEnvironment(p.seed, run.smoke)}
	for _, d := range defs {
		l.Workloads = append(l.Workloads, workloadRow{workloadDef: d})
	}
	start := time.Now()
	progress := func(what string) {
		fmt.Fprintf(out, "# %6.1fs %s\n", time.Since(start).Seconds(), what)
	}
	// Interleaved: repetition 1 of every workload, then repetition 2, …
	// so a slow minute on the shared machine hits every workload alike.
	for i := 0; i < p.reps || time.Since(start).Seconds() < p.seconds; i++ {
		for wi := range l.Workloads {
			if err := m.timedRep(&l.Workloads[wi]); err != nil {
				return nil, err
			}
		}
		l.Env.Reps = i + 1
		progress(fmt.Sprintf("timed repetition %d done", i+1))
	}
	for wi := range l.Workloads {
		w := &l.Workloads[wi]
		if !p.quick {
			if err := m.heldOut(w); err != nil {
				return nil, err
			}
		}
		if !p.quick || p.trace {
			if err := m.ladder(w); err != nil {
				return nil, err
			}
		}
	}
	if !p.quick {
		progress("held-out seed and SLO ladders done")
	}
	if p.trace {
		probes, err := run.spawn(probesChild, p.seed, false, false)
		if err != nil {
			return nil, err
		}
		progress("layer probes done")
		n := tracedReps
		if p.quick {
			n = 1
		}
		for wi := range l.Workloads {
			if err := m.traced(&l.Workloads[wi], probes, n); err != nil {
				return nil, err
			}
		}
		progress("traced runs done")
	}
	l.finish(run)
	return l, nil
}

// finish settles every row and derives the warnings.
func (l *ledger) finish(run *runner) {
	for wi := range l.Workloads {
		w := &l.Workloads[wi]
		for _, reps := range [][]rep{w.reps, w.tracedReps} {
			for i := range reps {
				reps[i].Speed = run.speed(reps[i].canaryAt)
			}
		}
		w.settle()
		if w.PerLayer == nil {
			continue
		}
		if ov := w.PerLayer["trace.overhead_frac"]; ov > 0.10 {
			l.Warnings = append(l.Warnings, fmt.Sprintf("%s: trace overhead %.1f %% exceeds 10 %%", w.Name, ov*100))
		}
		if cov := w.PerLayer["trace.coverage_frac"]; cov < 0.95 {
			l.Warnings = append(l.Warnings, fmt.Sprintf("%s: layer spans cover only %.1f %% of the traced wall time", w.Name, cov*100))
		}
	}
	l.CanaryMs = run.canaries
	l.CanaryRefMs = float64(run.canaryRounds) * canaryRefNs / 1e6
	l.CanarySpread = spread(run.canaries)
	if l.CanarySpread > 0.10 {
		l.Noisy = true
		l.Warnings = append(l.Warnings, fmt.Sprintf("noisy machine: canary spread %.1f %% exceeds 10 %%", l.CanarySpread*100))
	}
}

// print writes one `metric workload value unit` line per number.
func (l *ledger) print(out io.Writer) {
	fmt.Fprintf(out, "# env: %d cpus (%s), GOMAXPROCS %d, GOGC %s, %s, kernel %s, seed %d, reps %d, smoke %v\n",
		l.Env.NProc, l.Env.CPUModel, l.Env.GOMAXPROCS, l.Env.GOGC, l.Env.GoVersion, l.Env.Kernel, l.Env.Seed, l.Env.Reps, l.Env.Smoke)
	fmt.Fprintf(out, "# open loop on the modeled clock: arrivals are precomputed Poisson stamps, generator lateness 0 by construction\n")
	fmt.Fprintf(out, "# closed loop on the real clock: one producer, Submitter queue 4 x MaxBatch\n")
	for _, w := range l.Workloads {
		fmt.Fprintf(out, "# %s: %d %s per repetition, %d repetitions", w.Name, w.Work, w.WorkUnit, len(w.reps))
		if w.LatencySamples > 0 {
			fmt.Fprintf(out, ", %d latency samples", w.LatencySamples)
		}
		fmt.Fprintln(out)
		for _, d := range endToEnd {
			mv := w.EndToEnd[d.Name]
			if mv.Value == nil {
				fmt.Fprintf(out, "%s %s null %s\n", d.Name, w.Name, d.Unit)
				continue
			}
			fmt.Fprintf(out, "%s %s %.6g %s", d.Name, w.Name, *mv.Value, d.Unit)
			if len(mv.Reps) > 1 {
				_, rawMedian, _ := quartiles(mv.RepsRaw)
				fmt.Fprintf(out, "  # %s clock; min %.4g q1 %.4g median %.4g q3 %.4g spread %.1f%%; as the clock read it: median %.4g spread %.1f%%",
					d.Clock, mv.Min, mv.Q1, mv.Median, mv.Q3, spread(mv.Reps)*100, rawMedian, spread(mv.RepsRaw)*100)
			}
			fmt.Fprintln(out)
		}
		for _, s := range w.Ladder {
			fmt.Fprintf(out, "# %s ladder: %.0f txn/s on %d txns: p99 %.3f ms, last tenth %.3f ms, meets %.0f ms SLO: %v\n",
				w.Name, s.Rate, s.Txns, s.P99All*1e3, s.P99Tail*1e3, sloSeconds*1e3, s.MeetsSLO)
		}
		if w.LadderNote != "" {
			fmt.Fprintf(out, "# %s ladder: %s\n", w.Name, w.LadderNote)
		}
		if w.PerLayer != nil {
			for _, d := range perLayer {
				fmt.Fprintf(out, "%s %s %.6g %s\n", d.Name, w.Name, w.PerLayer[d.Name], d.Unit)
			}
			ref := w.PerLayer["dpu.probe_mram_read_ns"]
			fmt.Fprintf(out, "# %s: modeled MRAM read %.1f ns against the reference %.0f ns: error %+.1f %%; the rest of the cost model is unvalidated\n",
				w.Name, ref, mramReadReferenceNs, (ref-mramReadReferenceNs)/mramReadReferenceNs*100)
		}
		if w.Trace != nil {
			names := make([]string, 0, len(w.Trace.SpanSelfSeconds))
			for name := range w.Trace.SpanSelfSeconds {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				fmt.Fprintf(out, "trace.self_s.%s %s %.6g s\n", name, w.Name, w.Trace.SpanSelfSeconds[name])
			}
			fmt.Fprintf(out, "# %s: layers by self time:", w.Name)
			for _, layer := range w.Trace.TopLayers {
				fmt.Fprintf(out, " %s %.3f s", layer, w.Trace.SelfSeconds[layer])
			}
			fmt.Fprintf(out, "; benchmark glue %.3f s\n", w.Trace.SelfSeconds["perf"])
		}
		for _, e := range w.Errors {
			fmt.Fprintf(out, "# %s FAILED: %s\n", w.Name, e)
		}
	}
	if len(l.CanaryMs) > 0 {
		_, median, _ := quartiles(l.CanaryMs)
		fmt.Fprintf(out, "canary_ms - %.6g ms  # median of %d samples, spread %.1f%%; reference %.6g ms: the machine ran at %.2f of the reference speed\n",
			median, len(l.CanaryMs), l.CanarySpread*100, l.CanaryRefMs, l.CanaryRefMs/median)
	}
	for _, warn := range l.Warnings {
		fmt.Fprintf(out, "# WARNING: %s\n", warn)
	}
}

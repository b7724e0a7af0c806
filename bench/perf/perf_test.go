package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"pimstm/internal/host"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// runner re-executes os.Executable() with childEnv set, and such a
// process runs main instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		main()
		return
	}
	// A race-instrumented process sleeps a second at exit; the tests
	// spawn about thirty children. No effect on a build without -race.
	os.Setenv("GORACE", "atexit_sleep_ms=0")
	os.Exit(m.Run())
}

func smokeDef(t *testing.T, name string) workloadDef {
	t.Helper()
	d, ok := findWorkload(workloadTable(true), name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	return d
}

// The benchmark drives the serving stack with its own loop so it can
// time each layer call. That loop must not drift from the path users
// run: on the same scenario it has to yield host.Serve's result exactly,
// untraced and traced (the traced run wraps the scheduler).
func TestServeOnceMatchesHostServe(t *testing.T) {
	for _, name := range []string{"serve_confined", "serve_cross", "apps_neworder", "scale_sampled"} {
		s := *smokeDef(t, name).Serve
		w, err := s.workload(7, s.Txns, s.Rate)
		if err != nil {
			t.Fatal(err)
		}
		trace, err := w.Generate()
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := s.hostServeConfig(trace, w.Preload())
		if err != nil {
			t.Fatal(err)
		}
		want, err := host.Serve(cfg)
		if err != nil {
			t.Fatalf("%s: host.Serve: %v", name, err)
		}
		want.ZeroHostClock()
		for _, traced := range []bool{false, true} {
			c := newChild(name, 7, true, traced)
			out, err := c.serveOnce(s, trace, w.Preload(), 0)
			if err != nil {
				t.Fatalf("%s: serveOnce: %v", name, err)
			}
			got := out.res
			got.ZeroHostClock()
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s traced=%v: serveOnce drifted from host.Serve:\n got %+v\nwant %+v", name, traced, got, want)
			}
			if traced {
				c.tr.end(c.root, c.tr.now())
				sum := summarize(c.tr.spans)
				for layer, self := range sum.SelfSeconds {
					if self < 0 {
						t.Errorf("%s: layer %s has negative self time %g", name, layer, self)
					}
				}
				if c.res.Real["partmap.batch_apply_s"] <= 0 || c.res.Real["scheduler.admit_s"] <= 0 {
					t.Errorf("%s: the wrapping scheduler saw no batches or admits: %v", name, c.res.Real)
				}
			}
		}
	}
}

// Two children with one seed must report identical modeled blocks, and
// another seed must change them: the modeled clock is deterministic per
// seed and the seed reaches the inputs of every workload.
func TestChildrenAreDeterministicPerSeed(t *testing.T) {
	run, err := newRunner(t.TempDir(), true)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range workloadTable(true) {
		a, err := run.spawn(d.Name, 1, false, false)
		if err != nil {
			t.Fatal(err)
		}
		b, err := run.spawn(d.Name, 1, true, false)
		if err != nil {
			t.Fatal(err)
		}
		other, err := run.spawn(d.Name, 2, false, false)
		if err != nil {
			t.Fatal(err)
		}
		if a.Failed != 0 || b.Failed != 0 || other.Failed != 0 {
			t.Errorf("%s: failed checks: %v %v %v", d.Name, a.Errors, b.Errors, other.Errors)
		}
		if !blockOf(a).equal(blockOf(b)) {
			t.Errorf("%s: same seed, different modeled blocks (untraced against traced):\n%v\n%v", d.Name, blockOf(a), blockOf(b))
		}
		if blockOf(a).equal(blockOf(other)) {
			t.Errorf("%s: seeds 1 and 2 gave the same modeled block", d.Name)
		}
		if a.Attempted < 1 || a.Work < 1 {
			t.Errorf("%s: attempted %d, work %d", d.Name, a.Attempted, a.Work)
		}
		// BENCHMARK.json's gated metrics must exist, above 0, on every
		// workload.
		for _, e := range endToEnd {
			if e.gated() && e.Clock == clockModeled && !(a.Modeled[e.Name] > 0) {
				t.Errorf("%s: gated metric %s = %g", d.Name, e.Name, a.Modeled[e.Name])
			}
		}
		if b.Trace == nil || b.Trace.CoverageFrac <= 0.5 || b.Trace.CoverageFrac > 1 {
			t.Errorf("%s: implausible trace summary %+v", d.Name, b.Trace)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "perf.child", StartNs: 0, EndNs: 1000, Parent: -1},
		{Name: "partmap.new", StartNs: 100, EndNs: 300, Parent: 0},
		{Name: "submitter.serve", StartNs: 300, EndNs: 900, Parent: 0},
		{Name: "partmap.batch_apply", StartNs: 350, EndNs: 550, Parent: 2},
		{Name: "partmap.batch_apply", StartNs: 600, EndNs: 800, Parent: 2},
		// 40 admits busy for 50 ns in total, spread over the phase.
		{Name: "scheduler.admit", StartNs: 300, EndNs: 890, Parent: 2, BusyNs: 50, Calls: 40},
		// The producer blocked on backpressure: reported, not subtracted.
		{Name: "submitter.submit", StartNs: 300, EndNs: 850, Parent: 2, Wait: true},
	}
	want := []int64{1000 - 200 - 600, 200, 600 - 200 - 200 - 50, 200, 200, 50, 550}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	sum := summarize(spans)
	if got := sum.SelfSeconds["partmap"]; math.Abs(got-600e-9) > 1e-15 {
		t.Errorf("partmap self = %g, want 600 ns", got)
	}
	if got := sum.SelfSeconds["submitter"]; math.Abs(got-150e-9) > 1e-15 {
		t.Errorf("submitter self = %g, want 150 ns (the wait span must not count)", got)
	}
	if math.Abs(sum.CoverageFrac-0.8) > 1e-12 {
		t.Errorf("coverage = %g, want 0.8 (root self 200 of 1000)", sum.CoverageFrac)
	}
	if want := []string{"partmap", "submitter", "scheduler"}; !reflect.DeepEqual(sum.TopLayers, want) {
		t.Errorf("top layers = %v, want %v", sum.TopLayers, want)
	}
}

func TestBestHalfMeanAndQuartiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := bestHalfMean(xs, "lower"); got != 2 {
		t.Errorf("lower best-half mean = %g, want (1+2+3)/3", got)
	}
	if got := bestHalfMean(xs, "higher"); got != 4 {
		t.Errorf("higher best-half mean = %g, want (5+4+3)/3", got)
	}
	if got := bestHalfMean([]float64{3, 9}, "lower"); got != 3 {
		t.Errorf("best-half mean of two = %g, want the better one", got)
	}
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
	// == [3.5, 24.0, 160.0]
	q1, q2, q3 := quartiles([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256})
	if q1 != 3.5 || q2 != 24 || q3 != 160 {
		t.Errorf("quartiles = %g %g %g, want Python's 3.5 24 160", q1, q2, q3)
	}
	if got := spread([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256}); math.Abs(got-156.5/24) > 1e-12 {
		t.Errorf("spread = %g", got)
	}
}

// The benchmark's two quantile helpers must follow host.Quantile's
// nearest-rank rule, the one host.Serve reports percentiles by.
func TestQuantilesMatchHostQuantile(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 7, 100, 1001} {
		xs := make([]float64, n)
		ws := make([]weighted, 0, n)
		var flat []float64
		for i := range xs {
			xs[i] = rng.Float64()
			w := uint64(1 + rng.Intn(4))
			ws = append(ws, weighted{xs[i], w})
			for ; w > 0; w-- {
				flat = append(flat, xs[i])
			}
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
			if got, want := quantileSorted(sorted, q), host.Quantile(xs, q); got != want {
				t.Errorf("n=%d q=%g: quantileSorted %g, host.Quantile %g", n, q, got, want)
			}
			if got, want := weightedQuantile(ws, q), host.Quantile(flat, q); got != want {
				t.Errorf("n=%d q=%g: weightedQuantile %g, host.Quantile of the expanded samples %g", n, q, got, want)
			}
		}
	}
	if got := weightedQuantile(nil, 0.5); got != 0 {
		t.Errorf("weightedQuantile of nothing = %g", got)
	}
}

// A child's machine speed is the reference canary time over the median
// of the canary samples around it, and it scales times and rates, not
// memory.
func TestMachineSpeed(t *testing.T) {
	ref := 1000 * canaryRefNs / 1e6
	r := &runner{canaryRounds: 1000, canaries: []float64{ref, ref, 9 * ref, 2 * ref, 2 * ref, 2 * ref, 2 * ref, 2 * ref}}
	// The child between samples 0 and 1 sees samples 0..3: median 1.5 ref.
	if got := r.speed(0); math.Abs(got-1/1.5) > 1e-12 {
		t.Errorf("speed at the first child = %g, want 1/1.5", got)
	}
	// The child between samples 4 and 5 sees samples 2..7: one burst, five slow samples.
	if got := r.speed(4); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("speed in the slow phase = %g, want 0.5 (the burst must not count)", got)
	}
	reps := []rep{{Speed: 0.5}}
	for _, c := range []struct {
		name string
		want float64
	}{{"wall_s", 5}, {"real_ops_per_s", 20}, {"peak_rss_mb", 10}} {
		d, _ := findMetric(endToEnd, c.name)
		if got := onReference(d, []float64{10}, reps)[0]; got != c.want {
			t.Errorf("%s: 10 at half speed restated as %g, want %g", c.name, got, c.want)
		}
	}
}

func TestCompareMetric(t *testing.T) {
	val := func(reps ...float64) metricValue {
		v := bestHalfMean(reps, "lower")
		return metricValue{Value: &v, Reps: reps}
	}
	wall, _ := findMetric(endToEnd, "wall_s") // lower is better, bound 25 %
	tput, _ := findMetric(endToEnd, "modeled_tput")
	cases := []struct {
		name     string
		def      metricDef
		old, cur metricValue
		want     string
	}{
		{"within bound", wall, val(10, 10.1, 10.2), val(11.5, 11.6, 11.4), verdictOK},
		{"regression", wall, val(10, 10.1, 10.2), val(12.8, 12.9, 13), verdictRegression},
		{"every new rep faster", wall, val(10, 10.1, 10.2), val(9.0, 9.5, 9.9), verdictImproved},
		// Spread above the bound and overlapping repetitions: a 30 %
		// slowdown of the estimate still cannot be told from noise.
		{"noisy overlap", wall, val(10, 13, 19), val(13, 17, 18), verdictUnresolved},
		// Noisy, but every old repetition beats every new one: resolved.
		{"noisy separated", wall, val(10, 13, 14), val(15, 19, 23), verdictRegression},
		{"modeled equal", tput, val(100), val(100), verdictSame},
		{"modeled differs", tput, val(100), val(100.0000001), verdictMismatch},
		{"null both", tput, metricValue{}, metricValue{}, verdictSame},
		{"null one", tput, metricValue{}, val(1), verdictMismatch},
	}
	for _, c := range cases {
		if got, _ := compareMetric(c.def, c.old, c.cur); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareLedgers(t *testing.T) {
	mk := func(wall []float64, failed int64, digest string) *ledger {
		w := workloadRow{workloadDef: workloadDef{Name: "w"}, Attempted: 10, Failed: failed}
		w.Modeled = modeledBlock{Digest: digest, Metrics: map[string]float64{"modeled_tput": 5}}
		for range wall {
			w.reps = append(w.reps, rep{})
		}
		for i, x := range wall {
			w.reps[i].childResult.Real = map[string]float64{"wall_s": x, "setup_s": x / 10}
			w.reps[i].Work, w.reps[i].CPUSeconds, w.reps[i].PeakRSSMiB, w.reps[i].Speed = 100, x, 50, 1
		}
		w.settle()
		return &ledger{Workloads: []workloadRow{w}}
	}
	base := mk([]float64{10, 10.1, 10.2}, 0, "aa")
	if bad := compareLedgers(base, mk([]float64{10.2, 10.3, 10.1}, 0, "aa"), io.Discard); bad != 0 {
		t.Errorf("same code within noise: %d comparisons failed", bad)
	}
	var out bytes.Buffer
	if bad := compareLedgers(base, mk([]float64{13, 13.1, 13.2}, 0, "aa"), &out); bad == 0 || !strings.Contains(out.String(), verdictRegression) {
		t.Errorf("30 %% slower must be flagged, got %d:\n%s", bad, out.String())
	}
	if bad := compareLedgers(base, mk([]float64{10, 10.1, 10.2}, 1, "aa"), io.Discard); bad == 0 {
		t.Error("a higher failed_frac must fail the comparison")
	}
	if bad := compareLedgers(base, mk([]float64{10, 10.1, 10.2}, 0, "bb"), io.Discard); bad == 0 {
		t.Error("a different modeled digest must fail the comparison")
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// BENCHMARK.json is printed by `perf -manifest`; the committed file must
// be that output, and must stay inside the shape its readers accept.
func TestManifest(t *testing.T) {
	m := manifestOf()
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q does not match %v", kind, n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, w := range m.Workloads {
		name("workload", w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, e := range m.EndToEnd {
		name("end-to-end", e.Name)
		if !unitRE.MatchString(e.Unit) {
			t.Errorf("%s: unit %q", e.Name, e.Unit)
		}
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", e.Name, e.Bound)
		}
		if e.Name == "setup_s" {
			hasSetup = e.Unit == "s" && e.Better == "lower"
			for _, o := range m.EndToEnd {
				if o.Bound > e.Bound {
					t.Errorf("setup_s must carry the largest bound; %s has %g", o.Name, o.Bound)
				}
			}
		}
	}
	if !hasSetup {
		t.Error("end_to_end needs setup_s in s, lower is better")
	}
	for _, p := range m.PerLayer {
		name("per-layer", p.Name)
		if !unitRE.MatchString(p.Unit) {
			t.Errorf("%s: unit %q", p.Name, p.Unit)
		}
	}

	var want bytes.Buffer
	if err := writeManifest(&want); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Error("BENCHMARK.json differs from `perf -manifest`; regenerate it with bench/run.sh -manifest > BENCHMARK.json")
	}
}

// BENCHMARK.json's command must print, as its last line, exactly the
// declared metrics: every end_to_end metric untraced, every per_layer
// metric traced.
func TestRunForSecondsEmitsTheManifestMetrics(t *testing.T) {
	m := manifestOf()
	for _, traced := range []bool{false, true} {
		run, err := newRunner(t.TempDir(), true)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := runForSeconds(run, smokeDef(t, "serve_cross"), 3, 0.1, traced, &out); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var line resultLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("last line is not the result: %v\n%s", err, lines[len(lines)-1])
		}
		if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
			t.Errorf("traced=%v: correct %v, attempted %d, failed %d", traced, line.Correct, line.Attempted, line.Failed)
		}
		want := map[string]string{}
		if traced {
			for _, p := range m.PerLayer {
				want[p.Name] = p.Unit
			}
		} else {
			for _, e := range m.EndToEnd {
				want[e.Name] = e.Unit
			}
		}
		for name, unit := range want {
			got, ok := line.Metrics[name]
			if !ok || got.Unit != unit {
				t.Errorf("traced=%v: metric %s missing or in %q, want %q", traced, name, got.Unit, unit)
			}
			if !traced && got.Value <= 0 {
				t.Errorf("end-to-end metric %s = %g, must never be 0", name, got.Value)
			}
		}
		if len(line.Metrics) != len(want) {
			t.Errorf("traced=%v: %d metrics printed, %d declared", traced, len(line.Metrics), len(want))
		}
	}
}

// Command perf is the repo's benchmark: a two-clock performance ledger.
// It drives seven named workloads through the public functions of each
// layer, checks their outputs, and reports end-to-end and per-layer
// metrics on two clocks it never mixes — the modeled clock of the
// simulated fleet (deterministic per seed) and the real clock of the
// simulator process (noisy, repeated, bounded). See bench/README.md.
//
// Modes:
//
//	perf                                   the full ledger (bench/run.sh)
//	perf -workload W -seconds S -trace 0|1 one workload for S seconds, one JSON result line (BENCHMARK.json's command)
//	perf -compare old.json new.json        judge one ledger against another
//	perf -selfcheck                        two sets of the same binary, compared
//	perf -manifest                         print BENCHMARK.json
//	perf -child W …                        one repetition in this process (internal)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

func main() {
	if err := realMain(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perf:", err)
		os.Exit(1)
	}
}

func realMain(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("perf", flag.ContinueOnError)
	var (
		workload  = fs.String("workload", "", "run only this workload")
		seed      = fs.Uint64("seed", 1, "workload seed; the program under test receives only the generated inputs")
		seconds   = fs.Float64("seconds", 0, "measure one workload for this long and print one JSON result line")
		trace     = fs.Int("trace", 1, "0: end-to-end metrics only; 1: also the traced run, probes and per-layer metrics")
		reps      = fs.Int("reps", 0, "timed repetitions per workload, interleaved (default 5; 2 with -smoke)")
		smoke     = fs.Bool("smoke", false, "sizes about 2 % of full, to check the benchmark itself")
		outdir    = fs.String("outdir", "bench/out", "where the ledger and traces are written")
		compare   = fs.Bool("compare", false, "compare two ledgers: -compare old.json new.json")
		selfcheck = fs.Bool("selfcheck", false, "measure twice with this binary and compare the two sets")
		manifest  = fs.Bool("manifest", false, "print BENCHMARK.json")
		childName = fs.String("child", "", "internal: run one repetition of this workload in this process")
		ladder    = fs.Bool("ladder", false, "internal: the child runs the SLO ladder instead")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *childName != "":
		return runChild(*childName, *seed, *smoke, *trace == 1, *ladder, *outdir, out)
	case *manifest:
		return writeManifest(out)
	case *compare:
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare needs two ledger files, old then new")
		}
		return runCompare(fs.Arg(0), fs.Arg(1), out)
	}

	if *reps <= 0 {
		*reps = 5
		if *smoke {
			*reps = 2
		}
	}
	defs := workloadTable(*smoke)
	if *workload != "" {
		d, ok := findWorkload(defs, *workload)
		if !ok {
			return fmt.Errorf("unknown workload %q (valid: %v)", *workload, workloadNames())
		}
		defs = []workloadDef{d}
	}
	run, err := newRunner(*outdir, *smoke)
	if err != nil {
		return err
	}
	switch {
	case *seconds > 0:
		if len(defs) != 1 {
			return fmt.Errorf("-seconds needs -workload")
		}
		return runForSeconds(run, defs[0], *seed, *seconds, *trace == 1, out)
	case *selfcheck:
		return runSelfcheck(run, defs, *seed, *reps, out)
	}

	l, err := fullLedger(run, defs, plan{seed: *seed, reps: *reps, trace: *trace == 1}, out)
	if err != nil {
		return err
	}
	l.print(out)
	path := filepath.Join(*outdir, "ledger.json")
	if err := writeJSON(path, l); err != nil {
		return err
	}
	fmt.Fprintf(out, "# wrote %s\n", path)
	if n := l.failed(); n > 0 {
		return fmt.Errorf("%d checks failed", n)
	}
	return nil
}

func writeJSON(path string, v any) error {
	blob, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

func readLedger(path string) (*ledger, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l ledger
	if err := json.Unmarshal(blob, &l); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &l, nil
}

func runCompare(oldPath, newPath string, out io.Writer) error {
	old, err := readLedger(oldPath)
	if err != nil {
		return err
	}
	cur, err := readLedger(newPath)
	if err != nil {
		return err
	}
	if bad := compareLedgers(old, cur, out); bad > 0 {
		return fmt.Errorf("%d comparisons failed", bad)
	}
	return nil
}

// runSelfcheck measures two full sets of timed repetitions with the
// same binary and applies -compare to them: the benchmark's own bounds
// must hold between two runs of identical code.
func runSelfcheck(run *runner, defs []workloadDef, seed uint64, reps int, out io.Writer) error {
	var sets [2]*ledger
	for i := range sets {
		l, err := fullLedger(run, defs, plan{seed: seed, reps: reps}, out)
		if err != nil {
			return err
		}
		if n := l.failed(); n > 0 {
			l.print(out)
			return fmt.Errorf("set %d: %d checks failed", i+1, n)
		}
		if err := writeJSON(filepath.Join(run.outdir, fmt.Sprintf("selfcheck-%d.json", i+1)), l); err != nil {
			return err
		}
		sets[i] = l
	}
	if bad := compareLedgers(sets[0], sets[1], out); bad > 0 {
		return fmt.Errorf("selfcheck: %d comparisons failed between two sets of the same code", bad)
	}
	return nil
}

// resultLine is the one JSON object BENCHMARK.json's driver reads from
// the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// minTimedReps is the fewest repetitions a --seconds run reports from,
// however slow the machine.
const minTimedReps = 3

// runForSeconds is BENCHMARK.json's command: the quick plan on one
// workload, and its result line. --trace 0 repeats the workload until
// the time is up and prints the end-to-end metrics BENCHMARK.json
// gates; --trace 1 runs one untraced repetition, the ladder, the probes
// and one traced repetition and prints the rest.
func runForSeconds(run *runner, def workloadDef, seed uint64, seconds float64, traced bool, out io.Writer) error {
	p := plan{seed: seed, reps: minTimedReps, seconds: seconds, quick: true}
	if traced {
		p = plan{seed: seed, reps: 1, quick: true, trace: true}
	}
	l, err := fullLedger(run, []workloadDef{def}, p, out)
	if err != nil {
		return err
	}
	l.print(out)
	w := l.Workloads[0]
	line := resultLine{
		Correct: w.Failed == 0, Attempted: w.Attempted, Failed: w.Failed,
		Metrics: map[string]resultValue{},
	}
	for _, d := range endToEnd {
		// The gated metrics are the --trace 0 set; the two that cannot
		// be gated go out with the per-layer set.
		if d.gated() == traced {
			continue
		}
		v := 0.0
		if p := w.EndToEnd[d.Name].Value; p != nil {
			v = *p
		}
		line.Metrics[d.Name] = resultValue{v, d.Unit}
	}
	if traced {
		for _, d := range perLayer {
			line.Metrics[d.Name] = resultValue{w.PerLayer[d.Name], d.Unit}
		}
	}
	return json.NewEncoder(out).Encode(line)
}

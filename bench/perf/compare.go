package main

import (
	"fmt"
	"io"
	"math"
)

// Verdicts of one metric × workload comparison.
const (
	verdictSame       = "same"       // modeled, exactly equal
	verdictOK         = "ok"         // real, no worse than the bound
	verdictImproved   = "improved"   // real, every new repetition beats every old one
	verdictUnresolved = "unresolved" // real, spread wider than the bound and the sides overlap
	verdictRegression = "REGRESSION" // real, worse than the bound
	verdictMismatch   = "MISMATCH"   // modeled, differs
)

// compareMetric judges one end-to-end metric of one workload, old
// against new. A modeled metric must be equal. A real-clock metric is a
// regression when it is worse by more than its bound — but where either
// side's recorded spread is wider than the bound, the difference cannot
// be told from noise and the verdict is unresolved, not unchanged,
// unless every repetition of one side beats every repetition of the
// other.
func compareMetric(d metricDef, old, cur metricValue) (verdict string, worse float64) {
	if old.Value == nil || cur.Value == nil {
		if old.Value == nil && cur.Value == nil {
			return verdictSame, 0
		}
		return verdictMismatch, math.NaN()
	}
	worse = worseBy(*old.Value, *cur.Value, d.Better)
	if d.Clock == clockModeled {
		if *old.Value == *cur.Value {
			return verdictSame, 0
		}
		return verdictMismatch, worse
	}
	if separated(cur.Reps, old.Reps, d.Better) {
		return verdictImproved, worse
	}
	if math.Max(spread(old.Reps), spread(cur.Reps)) > d.Bound && !separated(old.Reps, cur.Reps, d.Better) {
		return verdictUnresolved, worse
	}
	if worse > d.Bound {
		return verdictRegression, worse
	}
	return verdictOK, worse
}

// compareLedgers applies every metric's bound per workload row and
// requires the modeled blocks to be equal. It returns how many
// comparisons failed: regressions, modeled mismatches, a higher
// failed_frac.
func compareLedgers(old, cur *ledger, out io.Writer) int {
	bad := 0
	if old.Env.Seed != cur.Env.Seed || old.Env.Smoke != cur.Env.Smoke {
		fmt.Fprintf(out, "# seeds or sizes differ (seed %d smoke %v against seed %d smoke %v): modeled values are not comparable\n",
			old.Env.Seed, old.Env.Smoke, cur.Env.Seed, cur.Env.Smoke)
		return 1
	}
	if old.Noisy || cur.Noisy {
		fmt.Fprintf(out, "# at least one side was measured on a noisy machine (canary spread %.1f %% / %.1f %%)\n",
			old.CanarySpread*100, cur.CanarySpread*100)
	}
	for _, o := range old.Workloads {
		c := cur.row(o.Name)
		if c == nil {
			fmt.Fprintf(out, "%-16s %-18s missing from the new ledger\n", o.Name, "-")
			bad++
			continue
		}
		for _, d := range endToEnd {
			verdict, worse := compareMetric(d, o.EndToEnd[d.Name], c.EndToEnd[d.Name])
			if d.Name == "failed_frac" && verdict == verdictMismatch && worse <= 0 {
				verdict = verdictOK // fewer failures than before
			}
			ov, cv := o.EndToEnd[d.Name].Value, c.EndToEnd[d.Name].Value
			if ov == nil && cv == nil {
				continue
			}
			limit := fmt.Sprintf("bound %.0f %%", d.Bound*100)
			if d.Clock == clockModeled {
				limit = "must be equal"
			}
			fmt.Fprintf(out, "%-16s %-18s %-10s old %s new %s (%+.1f %% worse, %s)\n",
				o.Name, d.Name, verdict, fmtValue(ov), fmtValue(cv), worse*100, limit)
			if verdict == verdictRegression || verdict == verdictMismatch {
				bad++
			}
		}
		if !o.Modeled.equal(c.Modeled) {
			fmt.Fprintf(out, "%-16s %-18s %-10s modeled counts differ (digest %s against %s)\n",
				o.Name, "modeled block", verdictMismatch, o.Modeled.Digest, c.Modeled.Digest)
			bad++
		}
	}
	return bad
}

func fmtValue(v *float64) string {
	if v == nil {
		return "null"
	}
	return fmt.Sprintf("%.6g", *v)
}

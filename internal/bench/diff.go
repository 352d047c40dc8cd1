package bench

import (
	"fmt"
	"sort"
	"strings"
)

// DiffOptions tune the benchmark regression gates of cmd/imflow-bench-diff.
type DiffOptions struct {
	// MaxRatio is the tolerated slowdown for timing fields: a fresh
	// ns/op above committed*MaxRatio is a violation. Default 1.25.
	MaxRatio float64
	// AllocEpsilon absorbs the runtime's background-allocation jitter in
	// the steady-state allocs/op gates. Default 0.5.
	AllocEpsilon float64
	// TimingChecks enables the wall-clock gates. CI smoke runs disable
	// them (the committed baseline was produced on different hardware)
	// and keep only the machine-independent allocation gates.
	TimingChecks bool
}

func (o DiffOptions) withDefaults() DiffOptions {
	if o.MaxRatio <= 1 {
		o.MaxRatio = 1.25
	}
	if o.AllocEpsilon <= 0 {
		o.AllocEpsilon = 0.5
	}
	return o
}

// sequentialSolver reports whether a solver name denotes a sequential
// engine, i.e. one covered by the steady-state zero-allocation guarantee.
// The parallel engine allocates per run (goroutine fan-out and worker
// bookkeeping) and its wall clock is scheduler-noisy, so it is exempt from
// both gates.
func sequentialSolver(name string) bool {
	return !strings.Contains(name, "parallel")
}

// cpuMismatch emits the informational note comparing the committed
// baseline's CPU provenance with the fresh run's: throughput and scaling
// columns measured on different core counts are not comparable, and the
// note keeps that from being misread as a regression or an improvement.
func cpuMismatch(report string, oldCPU, freshCPU int) []string {
	if oldCPU == freshCPU || oldCPU == 0 || freshCPU == 0 {
		return nil
	}
	return []string{fmt.Sprintf("%s: committed baseline ran on %d CPUs, fresh run on %d — timing and scaling columns are not comparable across core counts",
		report, oldCPU, freshCPU)}
}

// unmatchedBaselines reports, informationally, committed entries no fresh
// record matched — a renamed cell or a narrower fresh sweep is worth a
// note, never a failure (the smoke configurations run a strict subset of
// the committed grid by design).
func unmatchedBaselines(report string, baseline map[string]bool) []string {
	// Collect and sort the keys first: ranging over the map directly
	// made the INFO lines shuffle run to run, which diffs as churn in
	// the CI logs (detpath flags the pattern for the same reason).
	var keys []string
	for key, matched := range baseline {
		if !matched {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	var out []string
	for _, key := range keys {
		out = append(out, fmt.Sprintf("%s: committed entry %q has no fresh counterpart", report, key))
	}
	return out
}

// DiffRetrieval compares a fresh BENCH_retrieval.json against the
// committed baseline. Records are matched on (cell, solver); entries
// present in only one of the two documents are reported informationally,
// not as violations, so schema growth (new modes, new cells) and narrower
// smoke sweeps never fail the gate. Fresh records without a committed
// counterpart still face the absolute zero-allocation gate, which is what
// the CI smoke configuration (whose cells are smaller than the committed
// grid) relies on.
func DiffRetrieval(old, fresh *RetrievalReport, o DiffOptions) (violations, infos []string) {
	o = o.withDefaults()
	infos = append(infos, cpuMismatch("retrieval", old.NumCPU, fresh.NumCPU)...)
	baseline := make(map[string]RetrievalRecord, len(old.Records))
	matched := make(map[string]bool, len(old.Records))
	for _, r := range old.Records {
		baseline[r.Cell+"|"+r.Solver] = r
		matched[r.Cell+"|"+r.Solver] = false
	}
	for _, r := range fresh.Records {
		sequential := sequentialSolver(r.Solver)
		if sequential && r.AllocsPerOp > o.AllocEpsilon {
			violations = append(violations, fmt.Sprintf("%s %s: %.3f allocs/op breaks the sequential steady-state zero-allocation guarantee",
				r.Cell, r.Solver, r.AllocsPerOp))
		}
		key := r.Cell + "|" + r.Solver
		base, ok := baseline[key]
		if !ok {
			infos = append(infos, fmt.Sprintf("retrieval: fresh entry %q has no committed baseline", key))
			continue
		}
		matched[key] = true
		if !sequential {
			continue // exempt from the relative gates, but still a match
		}
		if r.AllocsPerOp > base.AllocsPerOp+o.AllocEpsilon {
			violations = append(violations, fmt.Sprintf("%s %s: allocs/op %.3f, committed %.3f",
				r.Cell, r.Solver, r.AllocsPerOp, base.AllocsPerOp))
		}
		if o.TimingChecks {
			if base.NsPerOp <= 0 {
				infos = append(infos, fmt.Sprintf("retrieval: committed entry %q has no timing (ns/op %.0f); timing gate skipped", key, base.NsPerOp))
			} else if r.NsPerOp > base.NsPerOp*o.MaxRatio {
				violations = append(violations, fmt.Sprintf("%s %s: %.0f ns/op, committed %.0f (> %.2fx)",
					r.Cell, r.Solver, r.NsPerOp, base.NsPerOp, o.MaxRatio))
			}
		}
	}
	return violations, append(infos, unmatchedBaselines("retrieval", matched)...)
}

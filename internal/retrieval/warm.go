// Cross-query warm starts: reuse the built network (and, for the
// conserving binary solver, the flow it carries) when consecutive solves
// share everything but the disk loads X_j.
//
// Consecutive queries on a shard typically hit the same bucket set over
// the same disks — only the busy horizons move. Rebuilding the network
// from scratch then re-deriving the flow discards exactly the work the
// paper's integrated algorithms exist to conserve, so the reusable
// solvers detect the repeat: a solve whose problem matches the previous
// build's *structure signature* (replica lists, per-disk service and
// delay parameters, disk mask) keeps the graph — arc indices, vtxSlot,
// dead-bucket marks — and only refreshes the loads.
//
// What each solver family conserves on a warm start:
//
//   - PRBinary with conservation: the previous query's maximal flow. The
//     warm start has no rule of its own: every conserving solve drains
//     the flow the graph carries down to each run's capacities
//     (flowgraph.DrainExcess, whole-path cancellation, the same drain
//     that absorbs a MarkFailed) and the engine augments only the
//     difference, so a warm solve merely starts from the previous query's
//     flow where a cold one starts from zero. The feasibility of each probe is a
//     property of the capacities alone (the max-flow value is unique), so
//     the bracket trajectory, the step counters, and the final response
//     time are bit-identical to a cold solve. The engine's heights are
//     not carried: Reset drops them at the start of every solve.
//   - The incremental walk solvers (FFIncremental, PRIncremental) and
//     FFBasic: the build only. Their walk must start from zero
//     capacities — the bracket floor usable as a warm threshold sits
//     below every single-block completion time, so there is no earlier
//     state to resume from — and resetRun returns the reused graph to
//     exactly the state a fresh build leaves it in.
//
// Warm eligibility is deliberately conservative: any structural doubt
// falls back to a full rebuild, which is always correct.
package retrieval

// tryWarm reports whether the network's last build can be reused for p
// under mask: same disk-table size, identical replica lists, identical
// per-slot Service/Delay, and a mask agreeing with the built slot mask.
// Loads are free to differ — they are what warm solves re-read. The
// previous solve must have completed cleanly (warmOK), so the carried
// flow is a conserved feasible flow.
func (net *network) tryWarm(p *Problem, mask *DiskMask) bool {
	if !net.warmOK || net.prob == nil || len(p.Disks) != len(net.vtxSlot) || len(p.Replicas) != net.q {
		return false
	}
	idx := 0
	for _, reps := range p.Replicas {
		if idx >= len(net.sigFlat) || int(net.sigFlat[idx]) != len(reps) {
			return false
		}
		idx++
		for _, d := range reps {
			if idx >= len(net.sigFlat) || int(net.sigFlat[idx]) != d {
				return false
			}
			idx++
		}
	}
	if idx != len(net.sigFlat) {
		return false
	}
	for k, d := range net.diskIDs {
		dp := p.Disks[d]
		if dp.Service != net.params[k].Service || dp.Delay != net.params[k].Delay {
			return false
		}
		if mask.Failed(d) != net.maskedSlot[k] {
			return false
		}
	}
	return true
}

// prepare readies the network for solving p under mask: a warm start
// (structure signature match) keeps the graph and refreshes only the
// loads; otherwise the network is rebuilt from scratch. It reports
// whether the start was warm. warmOK drops until the solve completes
// cleanly (finishDegraded), so an aborted solve can never seed the next.
func (net *network) prepare(p *Problem, mask *DiskMask) bool {
	if net.tryWarm(p, mask) {
		net.warmOK = false
		for k, d := range net.diskIDs {
			net.params[k].Load = p.Disks[d].Load
		}
		net.prob = p
		return true
	}
	net.rebuildMasked(p, mask)
	return false
}

// resetRun returns a reused network to the state rebuildMasked leaves a
// fresh build in: zero flow everywhere and zero disk->sink capacities.
// The incremental walk solvers open every search with it, so a warm
// start or a MarkFailed skips only the rebuild itself.
func (net *network) resetRun() {
	net.g.ZeroFlows()
	for k := range net.diskIDs {
		net.setCap(k, 0)
	}
}

// recordSignature captures p's structure (replica lists, flattened and
// length-prefixed) for tryWarm. Called by rebuildMasked; the per-slot
// Service/Delay half of the signature lives in net.params already.
// Amortized: appends reuse the backing array across rebuilds.
//
//imflow:allocok
func (net *network) recordSignature(p *Problem) {
	flat := net.sigFlat[:0]
	for _, reps := range p.Replicas {
		flat = append(flat, int32(len(reps)))
		for _, d := range reps {
			flat = append(flat, int32(d))
		}
	}
	net.sigFlat = flat
}

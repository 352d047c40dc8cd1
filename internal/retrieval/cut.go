// The min-cut search: how NewPRBinary finds the optimum response time
// without bisecting the bracket.
//
// A max-flow run at threshold t that falls short of the target ends with
// a minimum cut, and as t rises that cut's capacity grows only through
// the sink arcs of the disks on its source side. The optimum routes the
// whole target through every cut, so the least t' at which those disks
// complete the missing blocks is a lower bound on the optimum. The search
// jumps there, raises the capacities, and resumes the flow it holds. A
// raise cancels no flow, so no drain is needed. The first threshold whose
// run reaches the target is therefore the optimum. Before the first run
// the search routes every bucket it can through its emptiest replica disk
// (seed), so the engine starts near the maximum flow, the premise the
// paper's conserving runs rest on.
//
// This is Newton's method on a parametric minimum cut, whose source sides
// are nested as t rises (Gallo, Grigoriadis & Tarjan, SIAM J. Comput.
// 1989), or the paper's IncrementMinCost (Algorithm 3) aimed at the
// binding cut rather than at the globally cheapest next block. The first
// threshold, t0, is the bound of the trivial cut in front of the sink.
// Every maximum flow at one threshold leaves the same residual-reachable
// set, so the thresholds, and the run count, depend only on the problem.
package retrieval

import (
	"fmt"

	"imflow/internal/cost"
	"imflow/internal/maxflow"
)

// selectMax is the largest deficit a jump finds by taking the next
// completions one at a time. A larger deficit bisects the time axis,
// which costs the same whatever the deficit.
const selectMax = 16

// cutScratch is the min-cut search's scratch, owned by its solver and
// reused across solves.
type cutScratch struct {
	reached []bool  // residual reachability from s, per vertex
	queue   []int32 // maxflow.ResidualReach's visit order
	disks   []int   // slots of the live disks the next bound counts
	next    []int64 // per entry of disks: the blocks counted so far
}

// trivial sizes the scratch to the network (growing it only when the
// network outgrew it) and returns t0, the bound of the trivial cut in
// front of the sink: the least time at which the live disks'
// capacities, each clamped to its replica count, sum to the target.
func (c *cutScratch) trivial(net *network) cost.Micros {
	c.reached = grow(c.reached, net.g.N)
	c.queue = grow(c.queue, net.g.N)[:0]
	c.disks = grow(c.disks, len(net.params))[:0]
	c.next = grow(c.next, len(net.params))
	for k := range net.params {
		if !net.maskedSlot[k] {
			c.disks = append(c.disks, k)
		}
	}
	return c.levelTime(net, 0, net.target())
}

// searchCut runs the min-cut search on the prepared network. Its first
// run drains whatever flow the graph carries (the previous solve's on a
// warm start or a MarkFailed) down to t0's capacities and seeds it
// greedily (seed) before the engine augments it; every later run only
// raises the capacities. res.Stats.Increments counts the jumps.
//
//imflow:noalloc
func (s *PRBinary) searchCut(res *Result) error {
	net := &s.net
	c := &s.cut
	target := net.target()
	t := c.trivial(net)
	net.capsForTime(t)
	net.g.DrainExcess(net.s, net.t)
	net.seed()
	flow := s.augment()
	res.Stats.MaxflowRuns++
	for flow < target {
		next, ok := c.jump(net, t, target-flow)
		if !ok {
			//lint:ignore noalloc cold failure exit; aborts the solve, never the steady state
			return fmt.Errorf("retrieval: flow %d short of %d with the cut's disk edges saturated: %w", flow, target, ErrInfeasible)
		}
		t = next
		net.capsForTime(t)
		flow = s.augment()
		res.Stats.MaxflowRuns++
		res.Stats.Increments++
	}
	return nil
}

// seed completes the drained flow greedily: every live bucket that
// carries no flow is routed through the replica disk with the most
// residual sink capacity, buckets in order and replicas in list order,
// ties to the first, so the result is deterministic. A dead bucket's
// source arc and a masked disk's sink arc have no capacity, so neither
// takes a unit. The engine then starts from a near-maximal feasible flow
// instead of routing every unit itself. searchCut seeds only its first
// run, after search has reset the engine, so the run opens with a global
// relabel and never relies on Resume's precondition that the flow only
// lost whole paths since the last run.
func (net *network) seed() {
	g := net.g
	for i, a := range net.srcArc[:net.q] {
		if g.Residual(a) == 0 {
			continue // dead, or already routed
		}
		arc, disk, room := 0, 0, int64(0)
		first, end := net.replicaArcs(i)
		for b := first; b < end; b += 2 {
			k := int(g.To[b]) - net.q - 1
			if r := g.Residual(net.diskArc[k]); r > room {
				arc, disk, room = b, k, r
			}
		}
		if room == 0 {
			continue // the engine routes it, or finds it cannot
		}
		g.Push(a, 1)
		g.Push(arc, 1)
		g.Push(net.diskArc[disk], 1)
	}
}

// jump returns the least threshold after t at which the live disks on
// the source side of the current flow's minimum cut complete need more
// blocks than their capacities at t. It reports false when those disks
// have too little room left, which a problem with a live replica for
// every live bucket never leaves.
func (c *cutScratch) jump(net *network, t cost.Micros, need int64) (cost.Micros, bool) {
	c.queue = maxflow.ResidualReach(net.g, net.s, c.reached, c.queue)
	c.disks = c.disks[:0]
	level, room := need, int64(0)
	for _, v := range c.queue {
		k := int(v) - net.q - 1 // disk vertices follow the buckets
		if k < 0 || k >= len(net.params) || net.maskedSlot[k] || net.caps[k] >= net.inDeg[k] {
			continue
		}
		c.disks = append(c.disks, k)
		level += net.caps[k]
		room += net.inDeg[k] - net.caps[k]
	}
	if room < need {
		return 0, false
	}
	if need <= selectMax {
		return c.nthCompletion(net, need), true
	}
	return c.levelTime(net, cost.SatAdd(t, 1), level), true
}

// nthCompletion returns the time of the need-th earliest block the disks
// in c.disks can add to their current capacities, which is when their
// capacities first gain need blocks.
func (c *cutScratch) nthCompletion(net *network, need int64) cost.Micros {
	next := c.next[:len(c.disks)]
	for i, k := range c.disks {
		next[i] = net.caps[k]
	}
	var t cost.Micros
	for ; need > 0; need-- {
		best, first := 0, cost.Max
		for i, k := range c.disks {
			if next[i] < net.inDeg[k] {
				if f := net.params[k].Finish(next[i] + 1); f < first {
					best, first = i, f
				}
			}
		}
		next[best]++
		t = first
	}
	return t
}

// levelTime returns the least time at or after lo at which the disks in
// c.disks, each counting at most its replica count, complete level
// blocks in all, by bisecting the time axis. Their replica counts must
// sum to at least level.
func (c *cutScratch) levelTime(net *network, lo cost.Micros, level int64) cost.Micros {
	hi := lo
	for _, k := range c.disks {
		if f := net.params[k].Finish(net.inDeg[k]); f > hi {
			hi = f
		}
	}
	for lo < hi {
		mid := cost.SatAdd(lo, cost.SatSub(hi, lo)/2)
		if c.blocksAt(net, mid) >= level {
			hi = mid
		} else {
			lo = cost.SatAdd(mid, 1)
		}
	}
	return lo
}

// blocksAt sums the capacities the disks in c.disks have at time t.
func (c *cutScratch) blocksAt(net *network, t cost.Micros) int64 {
	var sum int64
	for _, k := range c.disks {
		dp := net.params[k]
		sum += cost.BlocksWithin(dp.Delay, dp.Load, dp.Service, t, net.inDeg[k])
	}
	return sum
}

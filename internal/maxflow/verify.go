package maxflow

import (
	"fmt"

	"imflow/internal/flowgraph"
)

// VerifyFlow is an independent double-entry audit of the graph's current
// flow: capacity constraints and antisymmetry on every arc, and
// conservation at every vertex other than s and t, accumulated by a
// global sweep over the arc arrays rather than through the CSR index
// (so a corrupted index cannot hide an imbalance). It returns the flow
// value on success.
//
// It deliberately re-implements flowgraph.CheckFlow instead of calling
// it: the two walk the representation differently, so a bug would have
// to fool both bookkeepings at once to slip through.
func VerifyFlow(g *flowgraph.Graph, s, t int) (int64, error) {
	m := g.M()
	if m%2 != 0 {
		return 0, fmt.Errorf("verify: odd arc count %d (arcs must be paired)", m)
	}
	if s < 0 || s >= g.N || t < 0 || t >= g.N || s == t {
		return 0, fmt.Errorf("verify: bad endpoints s=%d t=%d with %d vertices", s, t, g.N)
	}
	for a := 0; a < m; a++ {
		if g.Cap[a] < 0 {
			return 0, fmt.Errorf("verify: arc %d has negative capacity %d", a, g.Cap[a])
		}
		if g.Flow[a] > g.Cap[a] {
			return 0, fmt.Errorf("verify: arc %d flow %d exceeds capacity %d", a, g.Flow[a], g.Cap[a])
		}
		if g.Flow[a] != -g.Flow[a^1] {
			return 0, fmt.Errorf("verify: arcs %d/%d not antisymmetric (%d vs %d)", a, a^1, g.Flow[a], g.Flow[a^1])
		}
	}
	netOut := make([]int64, g.N)
	for a := 0; a < m; a += 2 {
		u, v := int(g.To[a^1]), int(g.To[a]) // tail, head of the forward arc
		netOut[u] += g.Flow[a]
		netOut[v] -= g.Flow[a]
	}
	for v := 0; v < g.N; v++ {
		if v == s || v == t {
			continue
		}
		if netOut[v] != 0 {
			return 0, fmt.Errorf("verify: vertex %d violates conservation (net outflow %d)", v, netOut[v])
		}
	}
	if netOut[s] != -netOut[t] {
		return 0, fmt.Errorf("verify: source outflow %d != sink inflow %d", netOut[s], -netOut[t])
	}
	return netOut[s], nil
}

// VerifyCertificate checks that (flow, cut) is a max-flow/min-cut
// certificate: the current flow is feasible, cut is an s-t cut (source
// side true, sink side false), no arc crosses the cut with residual
// capacity left, and the cut's capacity equals the flow value. By weak
// duality any flow value <= any cut capacity, so equality proves both
// that the flow is maximum and that the cut is minimum — this is the
// certificate the integrated retrieval algorithms rely on at every
// capacity-scaling step.
func VerifyCertificate(g *flowgraph.Graph, cut []bool, s, t int) error {
	value, err := VerifyFlow(g, s, t)
	if err != nil {
		return err
	}
	if len(cut) != g.N {
		return fmt.Errorf("verify: cut has %d entries for %d vertices", len(cut), g.N)
	}
	if !cut[s] {
		return fmt.Errorf("verify: source %d not on the source side of the cut", s)
	}
	if cut[t] {
		return fmt.Errorf("verify: sink %d on the source side of the cut", t)
	}
	// tail(a) == To[a^1] holds for forward and reverse arcs alike, so this
	// sweep covers residual arcs in both directions.
	for a := 0; a < g.M(); a++ {
		u, v := int(g.To[a^1]), int(g.To[a])
		if cut[u] && !cut[v] && g.Residual(a) != 0 {
			return fmt.Errorf("verify: arc %d (%d->%d) crosses the cut with residual %d", a, u, v, g.Residual(a))
		}
	}
	if cutCap := CutCapacity(g, cut); cutCap != value {
		return fmt.Errorf("verify: cut capacity %d != flow value %d", cutCap, value)
	}
	return nil
}

// Certify extracts the min-cut induced by the current (supposedly
// maximum) flow and verifies the full max-flow = min-cut certificate.
func Certify(g *flowgraph.Graph, s, t int) error {
	return VerifyCertificate(g, MinCut(g, s), s, t)
}

package bench

import (
	"fmt"

	"imflow/internal/experiment"
	"imflow/internal/query"
	"imflow/internal/retrieval"
	"imflow/internal/stats"
)

// Options controls the scale of a figure regeneration. The paper sweeps
// N = 10..100 with 1000 queries per point; the defaults are scaled down so
// every figure regenerates in minutes on a laptop. Raise Queries/Ns to
// paper scale for publication-grade curves.
type Options struct {
	Ns      []int  // disks-per-site sweep (x axis of figures 5-9)
	Queries int    // queries per point
	Seed    uint64 // workload seed
	Threads int    // worker threads for the parallel solver (figure 10)
}

// DefaultOptions returns the laptop-scale defaults.
func DefaultOptions() Options {
	return Options{
		Ns:      []int{10, 20, 30, 40, 50},
		Queries: 100,
		Seed:    1,
		Threads: 2,
	}
}

func (o Options) validate() error {
	if len(o.Ns) == 0 || o.Queries <= 0 {
		return fmt.Errorf("bench: need at least one N and a positive query count")
	}
	if o.Threads <= 0 {
		return fmt.Errorf("bench: non-positive thread count")
	}
	return nil
}

// panelSpec names one sub-figure's workload.
type panelSpec struct {
	name string
	typ  query.Type
	load query.Load
}

// cell materializes one evaluation cell.
func cell(expNum int, alloc experiment.AllocKind, spec panelSpec, n int, o Options) (*experiment.Instance, error) {
	cfg := experiment.Config{
		ExpNum:  expNum,
		Alloc:   alloc,
		Type:    spec.typ,
		Load:    spec.load,
		N:       n,
		Queries: o.Queries,
		Seed:    o.Seed + uint64(n)*1000003 + uint64(expNum)*29,
	}
	return cfg.Build()
}

// compareSeries times each solver on identical problem batches across the
// N sweep and returns one avg-ms-per-query series per solver. The caller
// supplies fresh solver constructors so engines never leak state between
// cells.
func compareSeries(expNum int, alloc experiment.AllocKind, spec panelSpec, o Options,
	mkSolvers []func() retrieval.Solver) ([]Series, error) {
	series := make([]Series, len(mkSolvers))
	for si, mk := range mkSolvers {
		series[si].Label = mk().Name()
	}
	for _, n := range o.Ns {
		inst, err := cell(expNum, alloc, spec, n, o)
		if err != nil {
			return nil, err
		}
		var first []int64
		for si, mk := range mkSolvers {
			m, err := MeasureSolver(mk(), inst.Problems)
			if err != nil {
				return nil, err
			}
			// Cross-check: all solvers must report identical optimal
			// response times on the shared batch.
			if si == 0 {
				first = make([]int64, len(m.Responses))
				for i, r := range m.Responses {
					first[i] = int64(r)
				}
			} else {
				for i, r := range m.Responses {
					if int64(r) != first[i] {
						return nil, fmt.Errorf("bench: %s and %s disagree on query %d (%v vs %v)",
							series[0].Label, series[si].Label, i, first[i], r)
					}
				}
			}
			series[si].Points = append(series[si].Points, Point{X: float64(n), Y: m.AvgMs()})
		}
	}
	return series, nil
}

// ratioSeries returns, for each allocation scheme, the ratio of the two
// solvers' average decision times (numerator / denominator) across the N
// sweep — the bb/int curves of figures 7-9.
func ratioSeries(expNum int, spec panelSpec, o Options,
	mkNum, mkDen func() retrieval.Solver) ([]Series, error) {
	var out []Series
	for _, alloc := range experiment.AllKinds {
		s := Series{Label: alloc.String()}
		for _, n := range o.Ns {
			inst, err := cell(expNum, alloc, spec, n, o)
			if err != nil {
				return nil, err
			}
			num, err := MeasureSolver(mkNum(), inst.Problems)
			if err != nil {
				return nil, err
			}
			den, err := MeasureSolver(mkDen(), inst.Problems)
			if err != nil {
				return nil, err
			}
			if den.Total <= 0 {
				return nil, fmt.Errorf("bench: zero denominator time at N=%d", n)
			}
			s.Points = append(s.Points, Point{
				X: float64(n),
				Y: float64(num.Total) / float64(den.Total),
			})
		}
		out = append(out, s)
	}
	return out, nil
}

// Fig5 regenerates Figure 5: Experiment 1 (homogeneous, basic problem),
// RDA allocation, Ford-Fulkerson (Algorithm 1) vs push-relabel
// (Algorithm 6) average runtime per query.
func Fig5(o Options) (*Figure, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	panels := []panelSpec{
		{"Range, Load 1", query.Range, query.Load1},
		{"Arbitrary, Load 2", query.Arbitrary, query.Load2},
		{"Range, Load 3", query.Range, query.Load3},
	}
	f := &Figure{ID: "fig5", Title: "Experiment 1, RDA: Ford-Fulkerson vs Push-relabel execution time"}
	for _, spec := range panels {
		series, err := compareSeries(1, experiment.RDA, spec, o, []func() retrieval.Solver{
			func() retrieval.Solver { return retrieval.NewFFBasic() },
			func() retrieval.Solver { return retrieval.NewPRBinaryBisect() },
		})
		if err != nil {
			return nil, err
		}
		f.Panels = append(f.Panels, Panel{
			Name: spec.name, XLabel: "N", YLabel: "avg runtime per query (ms)", Series: series,
		})
	}
	return f, nil
}

// Fig6 regenerates Figure 6: Experiment 5 (heterogeneous, random delays
// and loads), Orthogonal allocation, Ford-Fulkerson (Algorithm 2) vs
// push-relabel (Algorithm 6).
func Fig6(o Options) (*Figure, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	panels := []panelSpec{
		{"Arbitrary, Load 1", query.Arbitrary, query.Load1},
		{"Range, Load 2", query.Range, query.Load2},
		{"Arbitrary, Load 3", query.Arbitrary, query.Load3},
	}
	f := &Figure{ID: "fig6", Title: "Experiment 5, Orthogonal: Ford-Fulkerson vs Push-relabel execution time"}
	for _, spec := range panels {
		series, err := compareSeries(5, experiment.Orthogonal, spec, o, []func() retrieval.Solver{
			func() retrieval.Solver { return retrieval.NewFFIncremental() },
			func() retrieval.Solver { return retrieval.NewPRBinaryBisect() },
		})
		if err != nil {
			return nil, err
		}
		f.Panels = append(f.Panels, Panel{
			Name: spec.name, XLabel: "N", YLabel: "avg runtime per query (ms)", Series: series,
		})
	}
	return f, nil
}

// Fig7 regenerates Figure 7: Experiment 1, black-box/integrated
// push-relabel runtime ratio for each allocation scheme.
func Fig7(o Options) (*Figure, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	panels := []panelSpec{
		{"Range, Load 1", query.Range, query.Load1},
		{"Arbitrary, Load 2", query.Arbitrary, query.Load2},
		{"Range, Load 3", query.Range, query.Load3},
	}
	f := &Figure{ID: "fig7", Title: "Experiment 1: push-relabel black box / integrated runtime ratio"}
	for _, spec := range panels {
		series, err := ratioSeries(1, spec, o,
			func() retrieval.Solver { return retrieval.NewPRBinaryBlackBox() },
			func() retrieval.Solver { return retrieval.NewPRBinaryBisect() })
		if err != nil {
			return nil, err
		}
		f.Panels = append(f.Panels, Panel{
			Name: spec.name, XLabel: "N", YLabel: "runtime ratio (bb/int)", Series: series,
		})
	}
	return f, nil
}

// Fig8 regenerates Figure 8: Experiment 3, Arbitrary Load 1 — black box
// time, integrated time, and their ratio, per allocation scheme.
func Fig8(o Options) (*Figure, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	spec := panelSpec{"Arbitrary, Load 1", query.Arbitrary, query.Load1}
	f := &Figure{ID: "fig8", Title: "Experiment 3, Arbitrary Load 1: push-relabel algorithms comparison"}
	bb := make([]Series, 0, len(experiment.AllKinds))
	in := make([]Series, 0, len(experiment.AllKinds))
	ratio := make([]Series, 0, len(experiment.AllKinds))
	for _, alloc := range experiment.AllKinds {
		sBB := Series{Label: alloc.String()}
		sIN := Series{Label: alloc.String()}
		sR := Series{Label: alloc.String()}
		for _, n := range o.Ns {
			inst, err := cell(3, alloc, spec, n, o)
			if err != nil {
				return nil, err
			}
			mBB, err := MeasureSolver(retrieval.NewPRBinaryBlackBox(), inst.Problems)
			if err != nil {
				return nil, err
			}
			mIN, err := MeasureSolver(retrieval.NewPRBinaryBisect(), inst.Problems)
			if err != nil {
				return nil, err
			}
			sBB.Points = append(sBB.Points, Point{X: float64(n), Y: mBB.AvgMs()})
			sIN.Points = append(sIN.Points, Point{X: float64(n), Y: mIN.AvgMs()})
			sR.Points = append(sR.Points, Point{X: float64(n), Y: float64(mBB.Total) / float64(mIN.Total)})
		}
		bb = append(bb, sBB)
		in = append(in, sIN)
		ratio = append(ratio, sR)
	}
	f.Panels = []Panel{
		{Name: "Black Box execution time", XLabel: "N", YLabel: "avg runtime per query (ms)", Series: bb},
		{Name: "Integrated execution time", XLabel: "N", YLabel: "avg runtime per query (ms)", Series: in},
		{Name: "Execution time ratio", XLabel: "N", YLabel: "runtime ratio (bb/int)", Series: ratio},
	}
	return f, nil
}

// Fig9 regenerates Figure 9: Experiment 5 black-box/integrated ratio for
// arbitrary queries under the three loads — the paper's headline result
// (up to ~2.5x, growing with N and |Q|).
func Fig9(o Options) (*Figure, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	panels := []panelSpec{
		{"Arbitrary, Load 1", query.Arbitrary, query.Load1},
		{"Arbitrary, Load 2", query.Arbitrary, query.Load2},
		{"Arbitrary, Load 3", query.Arbitrary, query.Load3},
	}
	f := &Figure{ID: "fig9", Title: "Experiment 5: push-relabel black box / integrated runtime ratio"}
	for _, spec := range panels {
		series, err := ratioSeries(5, spec, o,
			func() retrieval.Solver { return retrieval.NewPRBinaryBlackBox() },
			func() retrieval.Solver { return retrieval.NewPRBinaryBisect() })
		if err != nil {
			return nil, err
		}
		f.Panels = append(f.Panels, Panel{
			Name: spec.name, XLabel: "N", YLabel: "runtime ratio (bb/int)", Series: series,
		})
	}
	return f, nil
}

// Fig9Work is the deterministic companion to Fig9: instead of wall-clock
// ratios (noisy, host-dependent) it plots the ratio of *push operations*
// executed by the black-box and integrated solvers on identical batches.
// For a fixed seed the curves are exactly reproducible on any machine and
// isolate the algorithmic saving of flow conservation from constant-factor
// implementation effects.
func Fig9Work(o Options) (*Figure, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	panels := []panelSpec{
		{"Arbitrary, Load 1", query.Arbitrary, query.Load1},
		{"Arbitrary, Load 2", query.Arbitrary, query.Load2},
		{"Arbitrary, Load 3", query.Arbitrary, query.Load3},
	}
	f := &Figure{ID: "fig9w", Title: "Experiment 5: black box / integrated push-operation ratio (deterministic)"}
	for _, spec := range panels {
		var series []Series
		for _, alloc := range experiment.AllKinds {
			s := Series{Label: alloc.String()}
			for _, n := range o.Ns {
				inst, err := cell(5, alloc, spec, n, o)
				if err != nil {
					return nil, err
				}
				bb, err := MeasureSolver(retrieval.NewPRBinaryBlackBox(), inst.Problems)
				if err != nil {
					return nil, err
				}
				in, err := MeasureSolver(retrieval.NewPRBinaryBisect(), inst.Problems)
				if err != nil {
					return nil, err
				}
				if in.Work.Pushes == 0 {
					return nil, fmt.Errorf("bench: integrated solver reported zero pushes at N=%d", n)
				}
				s.Points = append(s.Points, Point{
					X: float64(n),
					Y: float64(bb.Work.Pushes) / float64(in.Work.Pushes),
				})
			}
			series = append(series, s)
		}
		f.Panels = append(f.Panels, Panel{
			Name: spec.name, XLabel: "N", YLabel: "push-op ratio (bb/int)", Series: series,
		})
	}
	return f, nil
}

// Fig10 regenerates Figure 10: Experiment 5, N = 100 disks, per-query
// parallel/sequential runtime ratio of the integrated push-relabel solver
// with two threads. The x axis is the query index, as in the paper.
func Fig10(o Options) (*Figure, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	n := 100
	if len(o.Ns) > 0 {
		n = o.Ns[len(o.Ns)-1] // largest N of the sweep, paper uses 100
	}
	panels := []struct {
		spec  panelSpec
		alloc experiment.AllocKind
	}{
		{panelSpec{"Arbitrary, Load 1, Orthogonal", query.Arbitrary, query.Load1}, experiment.Orthogonal},
		{panelSpec{"Range, Load 2, Orthogonal", query.Range, query.Load2}, experiment.Orthogonal},
		{panelSpec{"Arbitrary, Load 1, RDA", query.Arbitrary, query.Load1}, experiment.RDA},
	}
	f := &Figure{ID: "fig10", Title: fmt.Sprintf(
		"Experiment 5: parallel/sequential per-query runtime ratio, %d threads, %d disks", o.Threads, n)}
	for _, pn := range panels {
		inst, err := cell(5, pn.alloc, pn.spec, n, o)
		if err != nil {
			return nil, err
		}
		seq, err := MeasureSolver(retrieval.NewPRBinaryBisect(), inst.Problems)
		if err != nil {
			return nil, err
		}
		par, err := MeasureSolver(retrieval.NewPRBinaryParallel(o.Threads), inst.Problems)
		if err != nil {
			return nil, err
		}
		s := Series{Label: "parallel/sequential"}
		ratios := make([]float64, len(seq.PerQuery))
		for i := range seq.PerQuery {
			r := float64(par.PerQuery[i]) / float64(seq.PerQuery[i])
			ratios[i] = r
			s.Points = append(s.Points, Point{X: float64(i), Y: r})
		}
		f.Panels = append(f.Panels, Panel{
			Name:   fmt.Sprintf("%s (avg ratio %.2f)", pn.spec.name, stats.Mean(ratios)),
			XLabel: "query", YLabel: "runtime ratio (parallel/sequential)", Series: []Series{s},
		})
	}
	return f, nil
}

// ByID regenerates one figure by number (5-10).
func ByID(id int, o Options) (*Figure, error) {
	switch id {
	case 5:
		return Fig5(o)
	case 6:
		return Fig6(o)
	case 7:
		return Fig7(o)
	case 8:
		return Fig8(o)
	case 9:
		return Fig9(o)
	case 10:
		return Fig10(o)
	}
	return nil, fmt.Errorf("bench: no figure %d (the paper's evaluation has figures 5-10)", id)
}

// Package experiment wires the substrates together into the paper's
// evaluation pipeline: a Table IV experiment, an allocation scheme, a
// query type and load, and a disk count N produce a batch of generalized
// retrieval problems ready for any solver.
package experiment

import (
	"fmt"

	"imflow/internal/decluster"
	"imflow/internal/grid"
	"imflow/internal/query"
	"imflow/internal/retrieval"
	"imflow/internal/storage"
	"imflow/internal/xrand"
)

// AllocKind selects one of the paper's three allocation schemes.
type AllocKind int

const (
	RDA AllocKind = iota
	Orthogonal
	Dependent
)

func (a AllocKind) String() string {
	switch a {
	case RDA:
		return "rda"
	case Orthogonal:
		return "orthogonal"
	case Dependent:
		return "dependent"
	}
	return fmt.Sprintf("AllocKind(%d)", int(a))
}

// AllKinds lists the three allocation schemes in the paper's plotting
// order.
var AllKinds = []AllocKind{RDA, Dependent, Orthogonal}

// Config describes one evaluation cell: everything needed to regenerate a
// point series of a figure.
type Config struct {
	ExpNum  int // Table IV experiment number (1-5)
	Alloc   AllocKind
	Type    query.Type
	Load    query.Load
	N       int // disks per site; the grid is N x N
	Queries int // queries per point (the paper uses 1000)
	Seed    uint64
}

func (c Config) String() string {
	return fmt.Sprintf("exp%d/%s/%s/%s/N=%d", c.ExpNum, c.Alloc, c.Type, c.Load, c.N)
}

// Instance is a fully materialized evaluation cell.
type Instance struct {
	Config   Config
	System   *storage.System
	Alloc    *decluster.Allocation
	Problems []*retrieval.Problem
}

// Build materializes the configuration: it instantiates the experiment's
// storage system, builds the allocation (one copy per site), draws the
// query stream, and converts every query into a retrieval problem.
func (c Config) Build() (*Instance, error) {
	if c.N <= 0 {
		return nil, fmt.Errorf("experiment: non-positive N")
	}
	if c.Queries <= 0 {
		return nil, fmt.Errorf("experiment: non-positive query count")
	}
	exp, err := storage.ExperimentByNum(c.ExpNum)
	if err != nil {
		return nil, err
	}
	rng := xrand.New(c.Seed ^ 0x1ce1ce1ce1ce1ce1)
	sys := exp.Build(c.N, rng)
	g := grid.New(c.N)
	copies := sys.Sites

	var alloc *decluster.Allocation
	switch c.Alloc {
	case RDA:
		alloc = decluster.RDA(g, c.N, copies, rng.Fork())
	case Orthogonal:
		if copies != 2 {
			return nil, fmt.Errorf("experiment: orthogonal allocation requires 2 copies, have %d sites", copies)
		}
		alloc = decluster.Orthogonal(g)
	case Dependent:
		alloc = decluster.Dependent(g, copies)
	default:
		return nil, fmt.Errorf("experiment: unknown allocation %v", c.Alloc)
	}
	if err := alloc.Validate(); err != nil {
		return nil, err
	}

	gen := query.NewGenerator(g, c.Type, c.Load)
	qrng := rng.Fork()
	inst := &Instance{Config: c, System: sys, Alloc: alloc, Problems: make([]*retrieval.Problem, c.Queries)}
	for i := range inst.Problems {
		buckets := gen.Query(qrng)
		inst.Problems[i] = BuildProblem(sys, alloc, buckets)
	}
	return inst, nil
}

// BuildProblem converts a query (bucket ID list) into a generalized
// retrieval problem: copy k of each bucket maps onto site k's disk array.
func BuildProblem(sys *storage.System, alloc *decluster.Allocation, buckets []int) *retrieval.Problem {
	p := &retrieval.Problem{
		Disks:    make([]retrieval.DiskParams, sys.NumDisks()),
		Replicas: sys.ReplicaDisks(alloc, buckets),
	}
	for j, d := range sys.Disks {
		p.Disks[j] = retrieval.DiskParams{Service: d.Service, Delay: d.Delay, Load: d.Load}
	}
	return p
}

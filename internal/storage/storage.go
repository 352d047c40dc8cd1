// Package storage models the physical side of the paper's system: the disk
// catalog of Table III, multi-site storage arrays connected over a
// dedicated network, per-site network delays and per-disk initial loads,
// and the five experiment configurations of Table IV.
package storage

import (
	"fmt"

	"imflow/internal/cost"
	"imflow/internal/decluster"
	"imflow/internal/xrand"
)

// DiskModel is one row of the paper's Table III: a disk product with its
// measured average single-block access time.
type DiskModel struct {
	Producer string
	Model    string
	Type     DiskType
	RPM      int         // 0 for SSDs
	Access   cost.Micros // average access time of one block (C_j)
}

// DiskType distinguishes rotational drives from solid-state drives.
type DiskType int

const (
	HDD DiskType = iota
	SSD
)

func (t DiskType) String() string {
	if t == SSD {
		return "SSD"
	}
	return "HDD"
}

// The disk catalog of Table III.
var (
	Barracuda = DiskModel{"Seagate", "Barracuda", HDD, 7200, cost.FromMillis(13.2)}
	Raptor    = DiskModel{"WD", "Raptor", HDD, 10000, cost.FromMillis(8.3)}
	Cheetah   = DiskModel{"Seagate", "Cheetah", HDD, 15000, cost.FromMillis(6.1)}
	Vertex    = DiskModel{"OCZ", "Vertex", SSD, 0, cost.FromMillis(0.5)}
	X25E      = DiskModel{"Intel", "X25-E", SSD, 0, cost.FromMillis(0.2)}
)

// Catalog lists every disk model of Table III.
var Catalog = []DiskModel{Barracuda, Raptor, Cheetah, Vertex, X25E}

// DiskGroup names a pool of models an experiment draws disks from.
type DiskGroup int

const (
	GroupCheetah DiskGroup = iota // homogeneous Cheetah array
	GroupHDD                      // Barracuda, Raptor, Cheetah
	GroupSSD                      // Vertex, X25-E
	GroupMixed                    // all five models (ssd+hdd)
)

func (g DiskGroup) String() string {
	switch g {
	case GroupCheetah:
		return "cheetah"
	case GroupHDD:
		return "hdd"
	case GroupSSD:
		return "ssd"
	case GroupMixed:
		return "ssd+hdd"
	}
	return fmt.Sprintf("DiskGroup(%d)", int(g))
}

// Models returns the catalog subset the group draws from.
func (g DiskGroup) Models() []DiskModel {
	switch g {
	case GroupCheetah:
		return []DiskModel{Cheetah}
	case GroupHDD:
		return []DiskModel{Barracuda, Raptor, Cheetah}
	case GroupSSD:
		return []DiskModel{Vertex, X25E}
	case GroupMixed:
		return []DiskModel{Barracuda, Raptor, Cheetah, Vertex, X25E}
	}
	panic("storage: unknown disk group")
}

// RandSpec is the paper's R(lo,hi,step) notation: a value drawn uniformly
// from {lo, lo+step, ..., hi} milliseconds. A zero RandSpec always draws 0.
type RandSpec struct {
	Lo, Hi, Step int // milliseconds
}

// Zero reports whether the spec always draws zero.
func (r RandSpec) Zero() bool { return r.Hi == 0 }

// Draw samples the spec.
func (r RandSpec) Draw(rng *xrand.Source) cost.Micros {
	if r.Zero() {
		return 0
	}
	if r.Step <= 0 || r.Hi < r.Lo {
		panic("storage: malformed RandSpec")
	}
	steps := (r.Hi-r.Lo)/r.Step + 1
	ms := r.Lo + r.Step*rng.Intn(steps)
	return cost.FromMillis(float64(ms))
}

func (r RandSpec) String() string {
	if r.Zero() {
		return "0"
	}
	return fmt.Sprintf("R(%d,%d,%d)", r.Lo, r.Hi, r.Step)
}

// SiteSpec configures one site of an experiment: which disk pool its array
// is drawn from, and the distributions of its network delay and of the
// initial loads of its disks.
type SiteSpec struct {
	Group DiskGroup
	Delay RandSpec // network delay to the site (D_j, shared by its disks)
	Load  RandSpec // initial load of each disk (X_j)
}

// Experiment is one row of Table IV.
type Experiment struct {
	Num   int
	Sites []SiteSpec
}

// Homogeneous reports whether every site uses the homogeneous Cheetah pool.
func (e Experiment) Homogeneous() bool {
	for _, s := range e.Sites {
		if s.Group != GroupCheetah {
			return false
		}
	}
	return true
}

// Experiments reproduces Table IV: five two-site experiments.
var Experiments = []Experiment{
	{1, []SiteSpec{{Group: GroupCheetah}, {Group: GroupCheetah}}},
	{2, []SiteSpec{{Group: GroupSSD}, {Group: GroupHDD}}},
	{3, []SiteSpec{{Group: GroupHDD}, {Group: GroupSSD}}},
	{4, []SiteSpec{{Group: GroupMixed}, {Group: GroupMixed}}},
	{5, []SiteSpec{
		{Group: GroupMixed, Delay: RandSpec{2, 10, 2}, Load: RandSpec{2, 10, 2}},
		{Group: GroupMixed, Delay: RandSpec{2, 10, 2}, Load: RandSpec{2, 10, 2}},
	}},
}

// ExperimentByNum returns the Table IV experiment with the given number.
func ExperimentByNum(num int) (Experiment, error) {
	for _, e := range Experiments {
		if e.Num == num {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("storage: no experiment %d (Table IV has 1-5)", num)
}

// Disk is one physical disk of a concrete system instance.
type Disk struct {
	ID      int // global disk ID
	Site    int
	Model   DiskModel
	Service cost.Micros // C_j
	Delay   cost.Micros // D_j, the network delay of the disk's site
	Load    cost.Micros // X_j, time until the disk drains its current queue
}

// Finish returns the completion time of this disk retrieving k blocks.
func (d Disk) Finish(k int64) cost.Micros {
	return cost.DiskFinish(d.Delay, d.Load, d.Service, k)
}

// System is a concrete multi-site storage system: Sites arrays of
// DisksPerSite disks each. Global disk IDs are assigned site-major, so
// site s owns disks [s*DisksPerSite, (s+1)*DisksPerSite). With one copy per
// site, copy k of a declustering maps onto site k's array — the paper's
// 14-disk example (disks 0-6 at site 1, 7-13 at site 2).
type System struct {
	Sites        int
	DisksPerSite int
	Disks        []Disk
}

// NumDisks returns the total disk count across all sites.
func (s *System) NumDisks() int { return len(s.Disks) }

// GlobalID maps (site, local disk index) to the global disk ID.
func (s *System) GlobalID(site, local int) int {
	if site < 0 || site >= s.Sites || local < 0 || local >= s.DisksPerSite {
		panic(fmt.Sprintf("storage: (site=%d, local=%d) outside %dx%d system",
			site, local, s.Sites, s.DisksPerSite))
	}
	return site*s.DisksPerSite + local
}

// ReplicaDisks maps a query's bucket ids onto the global ids of the disks
// holding their replicas: copy k of a bucket lives on site k, on the disk
// alloc places it on. The lists are windows of one slab, so a query costs
// two allocations, the slab and the list headers, whatever its size.
func (s *System) ReplicaDisks(alloc *decluster.Allocation, buckets []int) [][]int {
	c := alloc.Copies()
	slab := make([]int, len(buckets)*c)
	reps := make([][]int, len(buckets))
	for i, b := range buckets {
		r := slab[i*c : (i+1)*c : (i+1)*c]
		for k := range r {
			r[k] = s.GlobalID(k, alloc.Disk(k, b))
		}
		reps[i] = r
	}
	return reps
}

// Build instantiates an experiment for n disks per site, drawing random
// disk models, site delays, and initial loads from rng.
func (e Experiment) Build(n int, rng *xrand.Source) *System {
	if n <= 0 {
		panic("storage: non-positive disks per site")
	}
	sys := &System{
		Sites:        len(e.Sites),
		DisksPerSite: n,
		Disks:        make([]Disk, 0, len(e.Sites)*n),
	}
	for site, spec := range e.Sites {
		models := spec.Group.Models()
		delay := spec.Delay.Draw(rng) // one network delay per site
		for local := 0; local < n; local++ {
			m := models[rng.Intn(len(models))]
			sys.Disks = append(sys.Disks, Disk{
				ID:      site*n + local,
				Site:    site,
				Model:   m,
				Service: m.Access,
				Delay:   delay,
				Load:    spec.Load.Draw(rng),
			})
		}
	}
	return sys
}

// Uniform builds a system of `sites` sites with n identical disks per site
// and no delays or loads — the basic retrieval problem's substrate.
func Uniform(sites, n int, m DiskModel) *System {
	sys := &System{Sites: sites, DisksPerSite: n, Disks: make([]Disk, 0, sites*n)}
	for site := 0; site < sites; site++ {
		for local := 0; local < n; local++ {
			sys.Disks = append(sys.Disks, Disk{
				ID: site*n + local, Site: site, Model: m, Service: m.Access,
			})
		}
	}
	return sys
}

// Validate checks structural invariants of the system.
func (s *System) Validate() error {
	if len(s.Disks) != s.Sites*s.DisksPerSite {
		return fmt.Errorf("storage: %d disks, want %d sites x %d",
			len(s.Disks), s.Sites, s.DisksPerSite)
	}
	for i, d := range s.Disks {
		if d.ID != i {
			return fmt.Errorf("storage: disk %d has ID %d", i, d.ID)
		}
		if d.Site != i/s.DisksPerSite {
			return fmt.Errorf("storage: disk %d on site %d, want %d", i, d.Site, i/s.DisksPerSite)
		}
		if d.Service <= 0 {
			return fmt.Errorf("storage: disk %d has non-positive service time", i)
		}
		if d.Delay < 0 || d.Load < 0 {
			return fmt.Errorf("storage: disk %d has negative delay or load", i)
		}
	}
	return nil
}

package storage

import (
	"testing"

	"imflow/internal/cost"
	"imflow/internal/decluster"
	"imflow/internal/grid"
	"imflow/internal/xrand"
)

// TestCatalogMatchesTableIII pins the disk catalog to the paper's Table III.
func TestCatalogMatchesTableIII(t *testing.T) {
	want := []struct {
		model string
		typ   DiskType
		rpm   int
		ms    float64
	}{
		{"Barracuda", HDD, 7200, 13.2},
		{"Raptor", HDD, 10000, 8.3},
		{"Cheetah", HDD, 15000, 6.1},
		{"Vertex", SSD, 0, 0.5},
		{"X25-E", SSD, 0, 0.2},
	}
	if len(Catalog) != len(want) {
		t.Fatalf("catalog has %d entries, want %d", len(Catalog), len(want))
	}
	for i, w := range want {
		d := Catalog[i]
		if d.Model != w.model || d.Type != w.typ || d.RPM != w.rpm || d.Access != cost.FromMillis(w.ms) {
			t.Errorf("catalog[%d] = %+v, want %+v", i, d, w)
		}
	}
}

// TestExperimentsMatchTableIV pins the experiment grid to the paper's
// Table IV.
func TestExperimentsMatchTableIV(t *testing.T) {
	if len(Experiments) != 5 {
		t.Fatalf("%d experiments, want 5", len(Experiments))
	}
	for i, e := range Experiments {
		if e.Num != i+1 {
			t.Errorf("experiment %d numbered %d", i, e.Num)
		}
		if len(e.Sites) != 2 {
			t.Errorf("experiment %d has %d sites, want 2", e.Num, len(e.Sites))
		}
	}
	if !Experiments[0].Homogeneous() {
		t.Error("experiment 1 should be homogeneous")
	}
	for _, n := range []int{2, 3, 4, 5} {
		e, _ := ExperimentByNum(n)
		if e.Homogeneous() {
			t.Errorf("experiment %d should be heterogeneous", n)
		}
	}
	e2, _ := ExperimentByNum(2)
	if e2.Sites[0].Group != GroupSSD || e2.Sites[1].Group != GroupHDD {
		t.Error("experiment 2 groups wrong")
	}
	e3, _ := ExperimentByNum(3)
	if e3.Sites[0].Group != GroupHDD || e3.Sites[1].Group != GroupSSD {
		t.Error("experiment 3 groups wrong")
	}
	e5, _ := ExperimentByNum(5)
	for _, s := range e5.Sites {
		if s.Delay != (RandSpec{2, 10, 2}) || s.Load != (RandSpec{2, 10, 2}) {
			t.Error("experiment 5 delay/load specs wrong")
		}
	}
}

func TestExperimentByNumErrors(t *testing.T) {
	if _, err := ExperimentByNum(0); err == nil {
		t.Error("experiment 0 accepted")
	}
	if _, err := ExperimentByNum(6); err == nil {
		t.Error("experiment 6 accepted")
	}
}

func TestRandSpecDraw(t *testing.T) {
	rng := xrand.New(2)
	spec := RandSpec{2, 10, 2}
	seen := map[cost.Micros]bool{}
	for i := 0; i < 500; i++ {
		v := spec.Draw(rng)
		seen[v] = true
		ms := v.Millis()
		if ms < 2 || ms > 10 || int(ms)%2 != 0 {
			t.Fatalf("R(2,10,2) drew %v", v)
		}
	}
	if len(seen) != 5 {
		t.Errorf("R(2,10,2) produced %d distinct values, want 5", len(seen))
	}
	var zero RandSpec
	if zero.Draw(rng) != 0 {
		t.Error("zero spec drew non-zero")
	}
	if zero.String() != "0" || spec.String() != "R(2,10,2)" {
		t.Error("RandSpec.String broken")
	}
}

func TestGroupModels(t *testing.T) {
	if got := GroupCheetah.Models(); len(got) != 1 || got[0].Model != "Cheetah" {
		t.Error("cheetah group wrong")
	}
	if got := GroupHDD.Models(); len(got) != 3 {
		t.Error("hdd group wrong")
	}
	if got := GroupSSD.Models(); len(got) != 2 {
		t.Error("ssd group wrong")
	}
	if got := GroupMixed.Models(); len(got) != 5 {
		t.Error("mixed group wrong")
	}
	for _, m := range GroupSSD.Models() {
		if m.Type != SSD {
			t.Errorf("ssd group contains %s", m.Model)
		}
	}
	for _, m := range GroupHDD.Models() {
		if m.Type != HDD {
			t.Errorf("hdd group contains %s", m.Model)
		}
	}
}

func TestBuildStructure(t *testing.T) {
	rng := xrand.New(4)
	for num := 1; num <= 5; num++ {
		e, _ := ExperimentByNum(num)
		sys := e.Build(7, rng)
		if err := sys.Validate(); err != nil {
			t.Fatalf("experiment %d: %v", num, err)
		}
		if sys.NumDisks() != 14 || sys.Sites != 2 || sys.DisksPerSite != 7 {
			t.Fatalf("experiment %d: bad shape %+v", num, sys)
		}
		// Delay is per site: all disks of a site share it.
		for site := 0; site < 2; site++ {
			d0 := sys.Disks[sys.GlobalID(site, 0)].Delay
			for l := 1; l < 7; l++ {
				if sys.Disks[sys.GlobalID(site, l)].Delay != d0 {
					t.Errorf("experiment %d site %d: delays differ between disks", num, site)
				}
			}
		}
		// Models drawn from the right pool.
		for _, d := range sys.Disks {
			pool := e.Sites[d.Site].Group.Models()
			found := false
			for _, m := range pool {
				if m == d.Model {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("experiment %d: disk %d model %s not in site pool", num, d.ID, d.Model.Model)
			}
			if d.Service != d.Model.Access {
				t.Errorf("disk %d service %v != model access %v", d.ID, d.Service, d.Model.Access)
			}
		}
	}
}

func TestExperiment1IsBasicProblem(t *testing.T) {
	rng := xrand.New(9)
	e, _ := ExperimentByNum(1)
	sys := e.Build(5, rng)
	for _, d := range sys.Disks {
		if d.Model.Model != "Cheetah" || d.Delay != 0 || d.Load != 0 {
			t.Fatalf("experiment 1 disk %d not basic: %+v", d.ID, d)
		}
	}
}

func TestUniform(t *testing.T) {
	sys := Uniform(3, 4, Raptor)
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}
	if sys.NumDisks() != 12 {
		t.Fatalf("NumDisks = %d", sys.NumDisks())
	}
	for _, d := range sys.Disks {
		if d.Service != Raptor.Access || d.Delay != 0 || d.Load != 0 {
			t.Fatalf("uniform disk wrong: %+v", d)
		}
	}
}

func TestGlobalID(t *testing.T) {
	sys := Uniform(2, 7, Cheetah)
	if sys.GlobalID(0, 0) != 0 || sys.GlobalID(1, 0) != 7 || sys.GlobalID(1, 6) != 13 {
		t.Error("GlobalID mapping wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on bad site")
		}
	}()
	sys.GlobalID(2, 0)
}

// TestReplicaDisks checks the bucket-to-replica resolution against
// GlobalID and pins it at two allocations per query, the slab and the
// list headers, however many buckets the query holds.
func TestReplicaDisks(t *testing.T) {
	g := grid.New(6)
	sys := Uniform(3, 6, Cheetah)
	alloc := decluster.Dependent(g, 3)
	buckets := make([]int, g.Buckets())
	for i := range buckets {
		buckets[i] = (i * 7) % g.Buckets()
	}
	reps := sys.ReplicaDisks(alloc, buckets)
	for i, b := range buckets {
		if len(reps[i]) != 3 || cap(reps[i]) != 3 {
			t.Fatalf("bucket %d: list %v of cap %d, want 3 replicas", b, reps[i], cap(reps[i]))
		}
		for k, d := range reps[i] {
			if want := sys.GlobalID(k, alloc.Disk(k, b)); d != want {
				t.Fatalf("bucket %d copy %d on disk %d, want %d", b, k, d, want)
			}
		}
	}
	if n := testing.AllocsPerRun(20, func() { sys.ReplicaDisks(alloc, buckets) }); n != 2 {
		t.Fatalf("ReplicaDisks made %v allocations, want 2", n)
	}
}

func TestDiskFinish(t *testing.T) {
	d := Disk{Service: cost.FromMillis(6.1), Delay: cost.FromMillis(1), Load: cost.FromMillis(2)}
	if got := d.Finish(3); got != cost.FromMillis(1+2+3*6.1) {
		t.Errorf("Finish = %v", got)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	sys := Uniform(2, 3, Cheetah)
	sys.Disks[2].ID = 99
	if err := sys.Validate(); err == nil {
		t.Error("bad ID accepted")
	}
	sys2 := Uniform(2, 3, Cheetah)
	sys2.Disks[0].Service = 0
	if err := sys2.Validate(); err == nil {
		t.Error("zero service accepted")
	}
}

func TestStringers(t *testing.T) {
	if HDD.String() != "HDD" || SSD.String() != "SSD" {
		t.Error("DiskType.String broken")
	}
	for _, g := range []DiskGroup{GroupCheetah, GroupHDD, GroupSSD, GroupMixed} {
		if g.String() == "" {
			t.Errorf("empty group name for %d", int(g))
		}
	}
	if DiskGroup(42).String() != "DiskGroup(42)" {
		t.Error("unknown group name")
	}
}

func TestValidateShapeMismatch(t *testing.T) {
	sys := Uniform(2, 3, Cheetah)
	sys.Disks = sys.Disks[:5]
	if err := sys.Validate(); err == nil {
		t.Error("truncated disk list accepted")
	}
	sys2 := Uniform(2, 3, Cheetah)
	sys2.Disks[4].Site = 0
	if err := sys2.Validate(); err == nil {
		t.Error("wrong site accepted")
	}
	sys3 := Uniform(2, 3, Cheetah)
	sys3.Disks[0].Load = -1
	if err := sys3.Validate(); err == nil {
		t.Error("negative load accepted")
	}
}

func TestRandSpecDrawPanicsOnMalformed(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	RandSpec{Lo: 5, Hi: 2, Step: 1}.Draw(xrand.New(1))
}

package bench

import (
	"encoding/json"
	"testing"
)

// tinyServeOptions keeps the suite small enough for plain `go test`.
func tinyServeOptions() ServeOptions {
	return ServeOptions{Ns: []int{8}, Queries: 40, Workers: []int{1, 2}}
}

func TestRunServeShape(t *testing.T) {
	report, err := RunServe(tinyServeOptions())
	if err != nil {
		t.Fatal(err)
	}
	// One replay record, then per worker count one serve record, one
	// batch-pool serve record, and one hot-workload record, per cell.
	if len(report.Records) != 7 {
		t.Fatalf("%d records, want 7", len(report.Records))
	}
	replay := report.Records[0]
	if replay.Mode != "replay" || !replay.DeterministicMatch {
		t.Fatalf("first record %+v is not a deterministic-checked replay", replay)
	}
	var hot int
	for _, r := range report.Records {
		if r.QPS <= 0 || r.ElapsedNs <= 0 {
			t.Errorf("%s workers=%d: non-positive throughput %+v", r.Mode, r.Workers, r)
		}
		if r.P50LatencyUs > r.P95LatencyUs || r.P95LatencyUs > r.P99LatencyUs {
			t.Errorf("%s workers=%d: latency percentiles not monotone: %v %v %v",
				r.Mode, r.Workers, r.P50LatencyUs, r.P95LatencyUs, r.P99LatencyUs)
		}
		if r.MeanResponseUs <= 0 {
			t.Errorf("%s workers=%d: mean response %v", r.Mode, r.Workers, r.MeanResponseUs)
		}
		if r.Mode == "serve" && r.SpeedupVsReplay <= 0 {
			t.Errorf("workers=%d: speedup %v", r.Workers, r.SpeedupVsReplay)
		}
		if r.Mode == "serve-hot" {
			hot++
			if r.WarmRate <= 0 {
				t.Errorf("workers=%d: hot run never warm-started: %+v", r.Workers, r)
			}
		}
		if bp := r.Mode == "serve-bp"; bp != (r.BatchParallelism > 0) {
			t.Errorf("%s workers=%d: batch_parallelism %d", r.Mode, r.Workers, r.BatchParallelism)
		}
		if r.Mode == "serve-bp" && r.SpeedupVsReplay <= 0 {
			t.Errorf("workers=%d: batch-pool speedup %v", r.Workers, r.SpeedupVsReplay)
		}
	}
	if hot != 2 {
		t.Errorf("%d serve-hot records, want one per worker count", hot)
	}
	if _, err := json.Marshal(report); err != nil {
		t.Fatal(err)
	}
}

func TestServeOptionsDefaults(t *testing.T) {
	o := ServeOptions{}.withDefaults()
	if len(o.Ns) == 0 || len(o.Workers) == 0 || o.Queries <= 0 || o.Batch <= 0 || o.QueueDepth <= 0 {
		t.Fatalf("defaults incomplete: %+v", o)
	}
	smoke := SmokeServeOptions()
	if len(smoke.Ns) != 1 || smoke.Ns[0] >= o.Ns[0] {
		t.Fatalf("smoke configuration not smaller than default: %+v", smoke)
	}
}

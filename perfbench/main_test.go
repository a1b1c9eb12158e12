package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// tiny shrinks every workload so the smoke test runs in seconds.
var tiny = params{
	StudyJobs:     150,
	StudyDays:     60,
	Fig5Large:     12,
	Fig7Shots:     32,
	ServiceJobs:   240,
	ServiceDays:   3,
	OpenLoop:      80,
	OpenRate:      400,
	TenantJobs:    240,
	Tenants:       12,
	TenantDays:    5,
	SetupRepeats:  2,
	RecoverRepeat: 1,
}

// namedMetrics are the end-to-end metrics each workload prints by name
// in its ledger.
var namedMetrics = map[string][]metricDef{
	"study-2y": {{"setup_s", "s"}, {"peak_rss_mb", "MB"}, {"failed_share", "share"}, {"analyze_s", "s"}},
	"service-30d": {
		{"setup_s", "s"}, {"peak_rss_mb", "MB"}, {"failed_share", "share"},
		{"submit_p50_ms", "ms"}, {"submit_p99_ms", "ms"}, {"burst_submits_per_s", "1/s"},
		{"last_terminal_s", "s"}, {"fetch_s", "s"}, {"recover_s", "s"},
	},
	"tenant-200": {{"setup_s", "s"}, {"peak_rss_mb", "MB"}, {"failed_share", "share"}, {"tenant_run_s", "s"}},
}

// TestSmoke runs every workload at tiny size, untraced and traced, and
// checks that the output checks pass and every metric is emitted with
// its unit: the end-to-end set and each named ledger metric by every
// workload in both modes, and each per-layer metric by at least one
// workload's traced run.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	measured := map[string]bool{}
	for name := range workloads {
		for _, traced := range []bool{false, true} {
			r := &run{workload: name, seed: 3, seconds: 0, p: tiny, tr: newTracer(traced), dir: dir}
			if err := execute(r); err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			t.Logf("%s traced=%v: %d checks, %d spans", name, traced, r.attempted, len(r.tr.Spans()))
			if r.failed != 0 || r.attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d checks failed: %v", name, traced, r.failed, r.attempted, r.mismatches)
			}
			defs, vals := endToEnd, r.e2e
			if traced {
				defs, vals = perLayer, r.layer
			}
			res := r.report(defs, vals)
			if !res.Correct || len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: report %+v", name, traced, res)
			}
			for _, d := range defs {
				if m := res.Metrics[d.name]; m.Unit != d.unit {
					t.Errorf("%s: metric %s has unit %q, want %q", name, d.name, m.Unit, d.unit)
				}
			}
			for _, d := range endToEnd {
				if v, ok := r.e2e[d.name]; !ok || v <= 0 {
					t.Errorf("%s traced=%v: end-to-end metric %s = %v, want a measured positive value", name, traced, d.name, v)
				}
			}
			ledger := map[string]string{}
			for _, row := range r.ledger {
				ledger[row.name] = row.unit
			}
			for _, d := range namedMetrics[name] {
				if unit, ok := ledger[d.name]; !ok || unit != d.unit {
					t.Errorf("%s traced=%v: ledger metric %s has unit %q (present %v), want %q", name, traced, d.name, unit, ok, d.unit)
				}
			}
			if traced {
				for n := range r.layer {
					measured[n] = true
				}
				if len(r.tr.Spans()) == 0 {
					t.Errorf("%s: traced run recorded no spans", name)
				}
			}
		}
	}
	for _, d := range perLayer {
		if !measured[d.name] {
			t.Errorf("per-layer metric %s is reported by no workload", d.name)
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names exactly the
// workloads and metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is unknown", w.Name)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, program %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

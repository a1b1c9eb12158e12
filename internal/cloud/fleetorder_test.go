package cloud

import (
	"slices"
	"testing"
	"time"

	"qcloud/internal/backend"
)

// TestSessionFleetOrderBitIdentical pins the longest-first fleet
// fan-out: on the default fleet the qasm simulator is last in fleet
// order yet carries the most background arrivals, so it is dispatched
// first. The order must be a permutation of the fleet and a pure
// function of the config, while machine stats and job IDs stay in
// fleet order. Byte identity across worker counts and mid-run stepping
// on this fleet is TestSessionTraceBitIdentical's full-fleet case.
func TestSessionFleetOrderBitIdentical(t *testing.T) {
	start := time.Date(2021, 2, 1, 0, 0, 0, 0, time.UTC)
	cfg := Config{Seed: 23, Start: start, End: start.AddDate(0, 0, 2), Workers: 4}

	fleet := backend.Fleet()
	last := len(fleet) - 1
	if fleet[last].Name != "ibmq_qasm_simulator" {
		t.Fatalf("fleet order changed: last machine is %s, want ibmq_qasm_simulator", fleet[last].Name)
	}
	dispatch := func() []int {
		sess, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		return sess.order
	}
	order := dispatch()
	if again := dispatch(); !slices.Equal(order, again) {
		t.Fatalf("dispatch order differs between opens: %v vs %v", order, again)
	}
	if len(order) != len(fleet) || order[0] != last {
		t.Fatalf("dispatch order %v: want %d machines, the qasm simulator (%d) first", order, len(fleet), last)
	}
	sorted := slices.Clone(order)
	slices.Sort(sorted)
	for i, v := range sorted {
		if v != i {
			t.Fatalf("dispatch order %v is not a permutation of the fleet", order)
		}
	}

	// One job per live machine, submitted in reverse fleet order, so
	// IDs that follow submit time or dispatch order would fail below.
	var specs []*JobSpec
	pos := make(map[string]int, len(fleet))
	for i, m := range fleet {
		pos[m.Name] = i
		if m.Online.Before(start) && (m.Retired.IsZero() || m.Retired.After(cfg.End)) {
			specs = append(specs, &JobSpec{
				SubmitTime: start.Add(time.Duration(len(fleet)-i) * time.Minute),
				User:       "u", Machine: m.Name, BatchSize: 1, Shots: 1024,
				CircuitName: "qft", Width: 3, TotalDepth: 40, TotalGateOps: 150, CXTotal: 30, MemSlots: 3,
			})
		}
	}
	tr, err := Simulate(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range fleet {
		if tr.Machines[i].Name != m.Name {
			t.Fatalf("machine stats slot %d is %s, want %s", i, tr.Machines[i].Name, m.Name)
		}
	}
	if len(tr.Jobs) != len(specs) {
		t.Fatalf("trace has %d jobs, want %d", len(tr.Jobs), len(specs))
	}
	for _, j := range tr.Jobs {
		for _, k := range tr.Jobs {
			if j != k && (j.ID < k.ID) != (pos[j.Machine] < pos[k.Machine]) {
				t.Fatalf("job %d on %s vs job %d on %s: IDs are not in fleet order", j.ID, j.Machine, k.ID, k.Machine)
			}
		}
	}
}

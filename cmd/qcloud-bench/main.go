// qcloud-bench runs the simulator figure benchmarks (the Fig 7
// probability-of-success substrate: statevector scaling, trajectory
// shot throughput, and the five-machine fidelity sweep) and emits a
// machine-readable BENCH_<date>.json with ns/op, allocs/op and
// serial-vs-parallel / fused-vs-unfused speedups per figure. CI runs it
// on every push and uploads the JSON as a workflow artifact; the
// committed BENCH_*.json files record how those numbers moved across
// PRs (pass a previous report with -baseline to embed it).
//
// Usage:
//
//	qcloud-bench -iters 5 -out BENCH_2026-07-29.json
//	qcloud-bench -iters 1 -maxwidth 16 -journal-jobs 20000 -md  # quick CI smoke
//	qcloud-bench -baseline BENCH_old.json -md                   # compare + embed
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"

	"qcloud/internal/analysis"
	"qcloud/internal/backend"
	"qcloud/internal/circuit"
	"qcloud/internal/circuit/gens"
	"qcloud/internal/cloud"
	"qcloud/internal/compile"
	"qcloud/internal/par"
	"qcloud/internal/qsim"
	"qcloud/internal/tenant"
	"qcloud/internal/workload"
)

// Result is one benchmark's measurement.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// Speedup pairs two variants of the same figure benchmark.
type Speedup struct {
	Figure  string  `json:"figure"`
	Against string  `json:"against"`
	BaseNs  float64 `json:"base_ns_per_op"`
	NewNs   float64 `json:"ns_per_op"`
	Speedup float64 `json:"speedup"`
}

// KernelSweepRow records one circuit's compiled op-stream length per
// fusion setting: how many amplitude sweeps a shot costs unfused, with
// PR 2's 1q-chain + diagonal-run fusion, and with 2q block fusion.
type KernelSweepRow struct {
	Circuit string `json:"circuit"`
	Unfused int    `json:"unfused_ops"`
	Fused1Q int    `json:"fused_1q_ops"`
	Blocked int    `json:"blocked_2q_ops"`
}

// JournalSessionRow records one constant-memory contract run: the same
// year-long study stream through an in-memory session and a journaled
// one. HeldTraceEntries is the peak-RSS proxy — finished trace records
// retained in memory at window end — which is O(jobs) in-memory and 0
// journaled, no matter the job count.
type JournalSessionRow struct {
	Mode             string  `json:"mode"`
	Jobs             int     `json:"jobs"`
	Seconds          float64 `json:"seconds"`
	JobsPerSec       float64 `json:"jobs_per_sec"`
	HeldTraceEntries int     `json:"held_trace_entries"`
	JournalRecords   int64   `json:"journal_records,omitempty"`
	JournalBytes     int64   `json:"journal_bytes,omitempty"`
	RecordsPerSec    float64 `json:"journal_records_per_sec,omitempty"`
	BytesPerJob      float64 `json:"journal_bytes_per_job,omitempty"`
	Checkpoints      int     `json:"checkpoints,omitempty"`
}

// Report is the emitted BENCH_*.json document.
type Report struct {
	Label string `json:"label,omitempty"`
	// Notes is free-form context for the recorded numbers (what changed
	// since the baseline, what the run is meant to establish).
	Notes     string    `json:"notes,omitempty"`
	Date      string    `json:"date"`
	GoVersion string    `json:"go_version"`
	NumCPU    int       `json:"num_cpu"`
	Iters     int       `json:"iterations_per_benchmark"`
	Results   []Result  `json:"results"`
	Speedups  []Speedup `json:"speedups"`
	// KernelSweeps records per-circuit kernel-sweep counts under each
	// fusion setting (the lever 2q block fusion pulls).
	KernelSweeps []KernelSweepRow `json:"kernel_sweeps,omitempty"`
	// JournalSessions records the journaled-vs-in-memory session rows
	// (events/sec, bytes/job, held trace entries).
	JournalSessions []JournalSessionRow `json:"journal_sessions,omitempty"`
	// Baseline embeds a previous report (typically the pre-change
	// numbers) so one committed file records both sides of a change.
	Baseline *Report `json:"baseline,omitempty"`
}

func (r *Report) find(name string) *Result {
	for i := range r.Results {
		if r.Results[i].Name == name {
			return &r.Results[i]
		}
	}
	return nil
}

// measure times iters runs of f with the GC quiesced, recording
// wall-clock and allocation deltas per op. One untimed warm-up run
// precedes the clock so first-at-size page faults and heap growth do
// not land on whichever variant happens to run first (at 22q the cold
// first evolution is ~35% slower than every later one).
func measure(name string, iters int, f func() error) (Result, error) {
	if err := f(); err != nil {
		return Result{}, fmt.Errorf("%s: %w", name, err)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := f(); err != nil {
			return Result{}, fmt.Errorf("%s: %w", name, err)
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return Result{
		Name:        name,
		Iterations:  iters,
		NsPerOp:     float64(elapsed.Nanoseconds()) / float64(iters),
		BytesPerOp:  int64(after.TotalAlloc-before.TotalAlloc) / int64(iters),
		AllocsPerOp: int64(after.Mallocs-before.Mallocs) / int64(iters),
	}, nil
}

// measureOnce is measure without the warm-up and with a single timed
// run — for the million-job journal rows, where one pass writes
// hundreds of MB of WAL and the warm-up+iters loop would dominate the
// whole bench.
func measureOnce(name string, f func() error) (Result, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	if err := f(); err != nil {
		return Result{}, fmt.Errorf("%s: %w", name, err)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return Result{
		Name:        name,
		Iterations:  1,
		NsPerOp:     float64(elapsed.Nanoseconds()),
		BytesPerOp:  int64(after.TotalAlloc - before.TotalAlloc),
		AllocsPerOp: int64(after.Mallocs - before.Mallocs),
	}, nil
}

// simModes mirrors the bench_test.go variants: serial (full 2q-blocked
// fusion), a 4-worker pool, the PR 2 engine (1q/diagonal fusion only),
// and the pre-fusion engine — the Fusion2Q A/B trio plus parallelism.
var simModes = []struct {
	name string
	par  qsim.Parallelism
}{
	{"serial", qsim.Parallelism{Workers: 1}},
	{"parallel-4", qsim.Parallelism{Workers: 4}},
	{"serial-no2q", qsim.Parallelism{Workers: 1, DisableFusion2Q: true}},
	{"serial-unfused", qsim.Parallelism{Workers: 1, DisableFusion: true}},
}

// runsSerialProgram reports whether an exact (noiseless, terminal-
// measure) run at n qubits under p executes the same program as the
// serial default, so its row could only re-measure serial: the exact
// path skips fusion below 11 qubits and keeps kernels serial below
// 2^14 amplitudes (qsim's exactFuseMinQubits and kernelMinAmps).
func runsSerialProgram(n int, p qsim.Parallelism) bool {
	return (n < 11 && (p.DisableFusion || p.DisableFusion2Q)) || (n < 14 && p.Workers > 1)
}

// fig7Jobs compiles the Fig 7 fidelity workload (the n-qubit QFT POS
// benchmark on the paper's five machines) into simulator-ready batch
// jobs, replicated reps times with distinct seeds so the sweep has the
// many-small-jobs shape the batched dispatcher targets.
func fig7Jobs(machines []*backend.Machine, n, shots, reps int, at time.Time, seed int64) ([]qsim.BatchJob, error) {
	var jobs []qsim.BatchJob
	for _, m := range machines {
		cal := m.CalibrationAt(at)
		res, err := compile.Compile(gens.QFTBench(n), m, cal, compile.Options{Seed: seed})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", m.Name, err)
		}
		compacted, origOf := qsim.Compact(res.Circ)
		noise := qsim.NoiseFromCalibration(cal, 0).Remap(origOf)
		for rep := 0; rep < reps; rep++ {
			jobs = append(jobs, qsim.BatchJob{
				Circ:  compacted,
				Shots: shots,
				Noise: noise,
				Seed:  seed + m.Seed + int64(rep)*7919,
			})
		}
	}
	return jobs, nil
}

func run(iters, maxWidth, shots, journalJobs, tenantJobs int) (*Report, error) {
	rep := &Report{
		Date:      time.Now().UTC().Format("2006-01-02"),
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
		Iters:     iters,
	}
	add := func(res Result, err error) error {
		if err != nil {
			return err
		}
		rep.Results = append(rep.Results, res)
		log.Printf("%-44s %14.0f ns/op %9d allocs/op", res.Name, res.NsPerOp, res.AllocsPerOp)
		return nil
	}

	// Statevector scaling: exact QFT evolution across register widths,
	// recording only the variants that can differ at each width.
	for _, n := range []int{8, 12, 16, 20, 22} {
		if n > maxWidth {
			continue
		}
		circ := gens.QFTBench(n)
		for _, mode := range simModes {
			mode := mode
			if runsSerialProgram(n, mode.par) {
				continue
			}
			r := rand.New(rand.NewSource(1))
			name := fmt.Sprintf("StatevectorScaling/%dq/%s", n, mode.name)
			err := add(measure(name, iters, func() error {
				_, err := qsim.RunOpts(circ, 1, nil, r, mode.par)
				return err
			}))
			if err != nil {
				return nil, err
			}
		}
	}

	// Trajectory shots: the noisy 10q POS benchmark.
	trajCirc := gens.QFTBench(10)
	noise := qsim.UniformNoise(0.001, 0.01, 0.02)
	for _, mode := range simModes {
		mode := mode
		r := rand.New(rand.NewSource(2))
		name := "TrajectoryShots/" + mode.name
		err := add(measure(name, iters, func() error {
			_, err := qsim.RunOpts(trajCirc, shots, noise, r, mode.par)
			return err
		}))
		if err != nil {
			return nil, err
		}
	}

	// Fig 7: the five-machine fidelity sweep (compile + noisy POS).
	byName := backend.FleetByName()
	var machines []*backend.Machine
	for _, n := range []string{"ibmq_casablanca", "ibmq_toronto", "ibmq_guadalupe", "ibmq_rome", "ibmq_manhattan"} {
		machines = append(machines, byName[n])
	}
	at := time.Date(2021, 3, 10, 12, 0, 0, 0, time.UTC)
	for _, mode := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel-4", 4}} {
		mode := mode
		par.SetWorkers(mode.workers)
		seed := int64(0)
		name := "Fig07Fidelity/" + mode.name
		err := add(measure(name, iters, func() error {
			seed++
			_, err := analysis.FidelityVsCXMetrics(machines, 4, 300, at, seed)
			return err
		}))
		par.SetWorkers(0)
		if err != nil {
			return nil, err
		}
	}

	// BatchedSweep: the Fig 7 trajectory sweep's simulation workload
	// (the five compiled machines, `shots` shots each) under three
	// dispatchers at equal worker count: the PR 2 baseline (a serial
	// pool per job inside a parallel sweep, no 2q fusion), the same
	// per-job dispatch with 2q blocking, and one shared BatchRun pool
	// with 2q blocking. Five jobs on four workers is where per-job
	// pools leave a straggler tail — the shape pool batching fixes.
	// sweepReps replicates each machine's job; the kernel-sweep rows
	// below index sweepJobs[i*sweepReps] for machine i, so keep the two
	// in sync when scaling the sweep up.
	const sweepReps = 1
	sweepJobs, err := fig7Jobs(machines, 4, shots, sweepReps, at, 12)
	if err != nil {
		return nil, err
	}
	perJob := func(p qsim.Parallelism) func() error {
		return func() error {
			errs := make([]error, len(sweepJobs))
			par.ForEach(len(sweepJobs), 0, func(i int) {
				r := rand.New(rand.NewSource(sweepJobs[i].Seed))
				_, err := qsim.RunOpts(sweepJobs[i].Circ, sweepJobs[i].Shots, sweepJobs[i].Noise, r, p)
				errs[i] = err
			})
			return par.FirstError(errs)
		}
	}
	batched := func(p qsim.Parallelism) func() error {
		return func() error {
			for _, res := range qsim.BatchRun(sweepJobs, p) {
				if res.Err != nil {
					return res.Err
				}
			}
			return nil
		}
	}
	for _, mode := range []struct {
		name string
		f    func() error
	}{
		{"BatchedSweep/per-job-no2q", perJob(qsim.Parallelism{Workers: 1, DisableFusion2Q: true})},
		{"BatchedSweep/per-job", perJob(qsim.Parallelism{Workers: 1})},
		{"BatchedSweep/batched", batched(qsim.Parallelism{Workers: 4})},
	} {
		par.SetWorkers(4)
		err := add(measure(mode.name, iters, mode.f))
		par.SetWorkers(0)
		if err != nil {
			return nil, err
		}
	}

	// Kernel-sweep counts per compiled circuit: the op-stream length a
	// shot executes under each fusion setting.
	sweepCircs := []struct {
		name string
		circ *circuit.Circuit
	}{
		{"qftbench10", gens.QFTBench(10)},
		{"qaoa-ring8-p2", gens.QAOAMaxCut(8, gens.RingEdges(8), 2)},
	}
	for i, m := range machines {
		sweepCircs = append(sweepCircs, struct {
			name string
			circ *circuit.Circuit
		}{"fig7-" + m.Name, sweepJobs[i*sweepReps].Circ})
	}
	for _, sc := range sweepCircs {
		unfused, fused1q, blocked, err := qsim.KernelCounts(sc.circ, nil)
		if err != nil {
			return nil, err
		}
		rep.KernelSweeps = append(rep.KernelSweeps, KernelSweepRow{
			Circuit: sc.name, Unfused: unfused, Fused1Q: fused1q, Blocked: blocked,
		})
		log.Printf("kernel sweeps %-24s unfused %4d  fused-1q %4d  blocked-2q %4d",
			sc.name, unfused, fused1q, blocked)
	}

	// CloudFleetSweep: the discrete-event cloud fleet over a two-month
	// window (full fleet, ~300 study jobs) through the batch wrapper
	// and through the session API — serial vs parallel fleet fan-out,
	// plus the online submission pattern (advance + snapshot + submit
	// per job) the live sched policies drive. The session rows measure
	// the event-driven core's overhead against batch Simulate.
	cloudStart := time.Date(2021, 2, 1, 0, 0, 0, 0, time.UTC)
	cloudEnd := cloudStart.AddDate(0, 2, 0)
	cloudSpecs := workload.Generate(workload.Config{Seed: 5, TotalJobs: 300, Start: cloudStart, End: cloudEnd})
	cloudOrdered := make([]*cloud.JobSpec, len(cloudSpecs))
	copy(cloudOrdered, cloudSpecs)
	sort.SliceStable(cloudOrdered, func(i, j int) bool {
		return cloudOrdered[i].SubmitTime.Before(cloudOrdered[j].SubmitTime)
	})
	cloudCfg := func(workers int) cloud.Config {
		return cloud.Config{Seed: 5, Start: cloudStart, End: cloudEnd, Workers: workers}
	}
	for _, mode := range []struct {
		name string
		f    func() error
	}{
		{"CloudFleetSweep/simulate-serial", func() error {
			_, err := cloud.Simulate(cloudCfg(1), cloudSpecs)
			return err
		}},
		{"CloudFleetSweep/simulate-parallel-4", func() error {
			_, err := cloud.Simulate(cloudCfg(4), cloudSpecs)
			return err
		}},
		{"CloudFleetSweep/session-batch", func() error {
			sess, err := cloud.Open(cloudCfg(1))
			if err != nil {
				return err
			}
			for _, s := range cloudSpecs {
				if _, err := sess.Submit(s); err != nil {
					return err
				}
			}
			_, err = sess.Run()
			return err
		}},
		{"CloudFleetSweep/session-online", func() error {
			sess, err := cloud.Open(cloudCfg(1))
			if err != nil {
				return err
			}
			for _, s := range cloudOrdered {
				sess.AdvanceTo(s.SubmitTime)
				if _, err := sess.QueueState(s.Machine); err != nil {
					return err
				}
				if _, err := sess.Submit(s); err != nil {
					return err
				}
			}
			_, err = sess.Run()
			return err
		}},
	} {
		if err := add(measure(mode.name, iters, mode.f)); err != nil {
			return nil, err
		}
	}

	// CloudFaultRecovery: the same fleet sweep under the adversarial
	// fault scenario with retries enabled — what outages, transient
	// failures and backoff requeues cost over the calm run — plus the
	// full checkpoint pipeline (snapshot mid-run, serialize, restore,
	// finish) against running straight through.
	advSc, err := workload.FindFaultScenario("adversarial")
	if err != nil {
		return nil, err
	}
	cloudMid := cloudStart.AddDate(0, 1, 0)
	for _, mode := range []struct {
		name string
		f    func() error
	}{
		{"CloudFaultRecovery/simulate-adversarial", func() error {
			_, err := cloud.Simulate(advSc.Apply(cloudCfg(1)), cloudSpecs)
			return err
		}},
		{"CloudFaultRecovery/checkpoint-roundtrip", func() error {
			cfg := advSc.Apply(cloudCfg(1))
			sess, err := cloud.Open(cfg)
			if err != nil {
				return err
			}
			for _, s := range cloudSpecs {
				if _, err := sess.SubmitRetried(s, 0); err != nil {
					return err
				}
			}
			sess.AdvanceTo(cloudMid)
			ck, err := sess.Checkpoint()
			if err != nil {
				return err
			}
			var buf bytes.Buffer
			if err := cloud.WriteCheckpoint(&buf, ck); err != nil {
				return err
			}
			decoded, err := cloud.ReadCheckpoint(&buf)
			if err != nil {
				return err
			}
			restored, err := cloud.Restore(cfg, decoded)
			if err != nil {
				return err
			}
			_, err = restored.Run()
			return err
		}},
	} {
		if err := add(measure(mode.name, iters, mode.f)); err != nil {
			return nil, err
		}
	}

	// CloudMultiTenant: the tenant brokering layer's cost over direct
	// submission. The same skewed-contention stream (8 tenants,
	// Zipf-weighted shares) runs three ways: specs pushed straight into
	// the session (no quotas, first-come order), through the fair-share
	// broker, and through the broker with preemption enabled. The
	// broker rows price the quota tree, the decayed ledger and the
	// per-tick admission pass.
	if tenantJobs > 0 {
		sc, err := workload.FindTenantScenario("skewed")
		if err != nil {
			return nil, err
		}
		tenantCfg := func() (tenant.Config, []tenant.Submission) {
			return sc.Build(workload.TenantConfig{
				Seed: 7, Start: cloudStart, End: cloudEnd, TotalJobs: tenantJobs,
			})
		}
		brokered := func(preempt bool) func() error {
			return func() error {
				tcfg, subs := tenantCfg()
				tcfg.Preemption = preempt
				b, err := tenant.Open(cloudCfg(4), tcfg)
				if err != nil {
					return err
				}
				if err := b.Play(subs); err != nil {
					return err
				}
				_, err = b.Run()
				return err
			}
		}
		for _, mode := range []struct {
			name string
			f    func() error
		}{
			{"CloudMultiTenant/direct", func() error {
				_, subs := tenantCfg()
				specs := make([]*cloud.JobSpec, len(subs))
				for i, sub := range subs {
					s := *sub.Spec
					s.User = "tenant:" + sub.Queue
					specs[i] = &s
				}
				_, err := cloud.Simulate(cloudCfg(4), specs)
				return err
			}},
			{"CloudMultiTenant/broker", brokered(false)},
			{"CloudMultiTenant/broker-preempt", brokered(true)},
		} {
			if err := add(measure(mode.name, iters, mode.f)); err != nil {
				return nil, err
			}
		}
	}

	// CloudJournaledSession: the ROADMAP's million-job constant-memory
	// contract. The same year-long study stream runs through an
	// in-memory session (the finished trace accumulates until Run) and
	// through a journaled one (every finished job streams to the
	// durable WAL, auto-checkpointed quarterly, trace discarded from
	// memory). Each row records throughput and the peak-RSS proxy —
	// live trace entries held at window end — which is O(jobs)
	// in-memory and must be 0 journaled no matter the job count.
	if journalJobs > 0 {
		jStart := backend.StudyStart
		jEnd := jStart.AddDate(1, 0, 0)
		jSpecs := workload.Generate(workload.Config{Seed: 11, TotalJobs: journalJobs, Start: jStart, End: jEnd})
		jCfg := cloud.Config{Seed: 11, Start: jStart, End: jEnd, Workers: 4}
		jRow := func(mode string, sec float64, held int, st *cloud.JournalStats) {
			row := JournalSessionRow{
				Mode: mode, Jobs: len(jSpecs), Seconds: sec,
				JobsPerSec:       float64(len(jSpecs)) / sec,
				HeldTraceEntries: held,
			}
			if st != nil {
				row.JournalRecords = st.Records
				row.JournalBytes = st.Bytes
				row.RecordsPerSec = float64(st.Records) / sec
				row.BytesPerJob = float64(st.Bytes) / float64(st.JobRecords)
				row.Checkpoints = st.Checkpoints
			}
			rep.JournalSessions = append(rep.JournalSessions, row)
			log.Printf("journal session %-10s %d jobs  %7.2fs  %8.0f jobs/s  held %d  bytes/job %.0f",
				mode, row.Jobs, sec, row.JobsPerSec, held, row.BytesPerJob)
		}
		var heldMem, heldJrnl int
		var jstats cloud.JournalStats
		resMem, err := measureOnce("CloudJournaledSession/in-memory", func() error {
			sess, err := cloud.Open(jCfg)
			if err != nil {
				return err
			}
			for _, s := range jSpecs {
				if _, err := sess.Submit(s); err != nil {
					return err
				}
			}
			sess.AdvanceTo(jEnd)
			heldMem = sess.HeldTraceEntries()
			_, err = sess.Run()
			return err
		})
		if err := add(resMem, err); err != nil {
			return nil, err
		}
		jRow("in-memory", resMem.NsPerOp/1e9, heldMem, nil)
		resJrnl, err := measureOnce("CloudJournaledSession/journaled", func() error {
			dir, err := os.MkdirTemp("", "qcloud-bench-journal-*")
			if err != nil {
				return err
			}
			defer os.RemoveAll(dir)
			cfg := jCfg
			cfg.Journal = &cloud.JournalConfig{Dir: dir, CheckpointEvery: 91 * 24 * time.Hour}
			sess, err := cloud.Open(cfg)
			if err != nil {
				return err
			}
			for _, s := range jSpecs {
				if _, err := sess.Submit(s); err != nil {
					return err
				}
			}
			sess.AdvanceTo(jEnd)
			heldJrnl = sess.HeldTraceEntries()
			jstats, err = sess.DrainJournal()
			return err
		})
		if err := add(resJrnl, err); err != nil {
			return nil, err
		}
		jRow("journaled", resJrnl.NsPerOp/1e9, heldJrnl, &jstats)
	}

	// Kernel crossover probe: the same 16q exact evolution with the
	// parallel threshold forced low, default, and high — the knob
	// Parallelism.KernelMinAmps exposes.
	if maxWidth >= 16 {
		circ := gens.QFTBench(16)
		for _, minAmps := range []int{1 << 12, 1 << 14, 1 << 16} {
			minAmps := minAmps
			r := rand.New(rand.NewSource(3))
			name := fmt.Sprintf("KernelCrossover/16q/minamps-%d", minAmps)
			err := add(measure(name, iters, func() error {
				_, err := qsim.RunOpts(circ, 1, nil, r, qsim.Parallelism{Workers: 4, KernelMinAmps: minAmps})
				return err
			}))
			if err != nil {
				return nil, err
			}
		}
	}

	// Pair the variants into per-figure speedups.
	pairs := []struct{ figure, base, opt, against string }{
		{"TrajectoryShots", "TrajectoryShots/serial", "TrajectoryShots/parallel-4", "serial"},
		{"TrajectoryShots", "TrajectoryShots/serial-unfused", "TrajectoryShots/serial", "unfused"},
		{"TrajectoryShots", "TrajectoryShots/serial-no2q", "TrajectoryShots/serial", "no2q"},
		{"Fig07Fidelity", "Fig07Fidelity/serial", "Fig07Fidelity/parallel-4", "serial"},
		// The acceptance number for PR 3: the Fig 7 trajectory sweep,
		// batched + 2q-blocked, against the PR 2 dispatch at equal
		// worker count.
		{"BatchedSweep", "BatchedSweep/per-job-no2q", "BatchedSweep/batched", "pr2-per-job-no2q"},
		{"BatchedSweep", "BatchedSweep/per-job", "BatchedSweep/batched", "per-job-pools"},
		// Session-API overhead vs the batch entry point (≈1.0 means the
		// event-driven core costs nothing over the old fused loop).
		{"CloudFleetSweep", "CloudFleetSweep/simulate-serial", "CloudFleetSweep/simulate-parallel-4", "serial"},
		{"CloudFleetSweep/session-batch", "CloudFleetSweep/simulate-serial", "CloudFleetSweep/session-batch", "batch-simulate"},
		{"CloudFleetSweep/session-online", "CloudFleetSweep/simulate-serial", "CloudFleetSweep/session-online", "batch-simulate"},
		// Recovery overhead: fault injection + retries vs the calm run,
		// and the checkpoint round-trip vs running straight through.
		{"CloudFaultRecovery", "CloudFleetSweep/simulate-serial", "CloudFaultRecovery/simulate-adversarial", "no-faults"},
		{"CloudFaultRecovery/checkpoint", "CloudFaultRecovery/simulate-adversarial", "CloudFaultRecovery/checkpoint-roundtrip", "straight-run"},
		// Durability cost: what streaming every finished job to the WAL
		// (plus auto-checkpoints) costs over holding the trace in memory.
		{"CloudJournaledSession", "CloudJournaledSession/in-memory", "CloudJournaledSession/journaled", "in-memory"},
		// Brokering cost: the fair-share admission layer (and preemption
		// on top) against pushing the same stream straight in.
		{"CloudMultiTenant", "CloudMultiTenant/direct", "CloudMultiTenant/broker", "direct-submit"},
		{"CloudMultiTenant/preempt", "CloudMultiTenant/broker", "CloudMultiTenant/broker-preempt", "broker-no-preempt"},
	}
	for _, n := range []int{16, 20, 22} {
		if n > maxWidth {
			continue
		}
		fig := fmt.Sprintf("StatevectorScaling/%dq", n)
		pairs = append(pairs,
			struct{ figure, base, opt, against string }{fig, fig + "/serial", fig + "/parallel-4", "serial"},
			struct{ figure, base, opt, against string }{fig, fig + "/serial-unfused", fig + "/serial", "unfused"},
			struct{ figure, base, opt, against string }{fig, fig + "/serial-no2q", fig + "/serial", "no2q"},
		)
	}
	for _, p := range pairs {
		base, opt := rep.find(p.base), rep.find(p.opt)
		if base == nil || opt == nil || opt.NsPerOp == 0 {
			continue
		}
		rep.Speedups = append(rep.Speedups, Speedup{
			Figure:  p.figure,
			Against: p.against,
			BaseNs:  base.NsPerOp,
			NewNs:   opt.NsPerOp,
			Speedup: base.NsPerOp / opt.NsPerOp,
		})
	}
	return rep, nil
}

// markdown renders the report (vs its baseline when embedded) as the
// README perf table.
func markdown(rep *Report) string {
	out := "| Benchmark | ns/op | allocs/op |"
	if rep.Baseline != nil {
		out += " baseline ns/op | baseline allocs/op | vs baseline |"
	}
	out += "\n|---|---|---|"
	if rep.Baseline != nil {
		out += "---|---|---|"
	}
	out += "\n"
	for _, r := range rep.Results {
		out += fmt.Sprintf("| %s | %.0f | %d |", r.Name, r.NsPerOp, r.AllocsPerOp)
		if rep.Baseline != nil {
			if b := rep.Baseline.find(r.Name); b != nil && r.NsPerOp > 0 {
				out += fmt.Sprintf(" %.0f | %d | %.2fx |", b.NsPerOp, b.AllocsPerOp, b.NsPerOp/r.NsPerOp)
			} else {
				out += " — | — | — |"
			}
		}
		out += "\n"
	}
	return out
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("qcloud-bench: ")
	var (
		iters    = flag.Int("iters", 5, "iterations per benchmark (fixed, so CI timing is predictable)")
		maxWidth = flag.Int("maxwidth", 22, "largest statevector width to run (lower it for quick smoke runs)")
		shots    = flag.Int("shots", 256, "trajectory benchmark shot count")
		outPath  = flag.String("out", "", "output JSON path (default BENCH_<date>.json)")
		baseline = flag.String("baseline", "", "previous report to embed under \"baseline\" for comparison")
		label    = flag.String("label", "", "free-form label recorded in the report (e.g. a PR number)")
		notes    = flag.String("notes", "", "free-form notes recorded in the report (what the run establishes)")
		md       = flag.Bool("md", false, "also print the results as a markdown table")
		jrnlJobs = flag.Int("journal-jobs", 1000000, "job count for the journaled-session rows (single timed pass each; 0 skips them, lower it for quick smoke runs)")
		tenJobs  = flag.Int("tenant-jobs", 2000, "submission count for the multi-tenant broker rows (0 skips them)")
	)
	flag.Parse()

	rep, err := run(*iters, *maxWidth, *shots, *jrnlJobs, *tenJobs)
	if err != nil {
		log.Fatal(err)
	}
	rep.Label = *label
	// Stamp the host's parallelism into the notes so a committed report
	// can never be mistaken for a different machine class: parallel
	// speedup rows from a 1-vCPU container measure goroutine overhead,
	// not speedup.
	hw := fmt.Sprintf("hw: NumCPU=%d GOMAXPROCS=%d", runtime.NumCPU(), runtime.GOMAXPROCS(0))
	if *notes != "" {
		rep.Notes = *notes + " | " + hw
	} else {
		rep.Notes = hw
	}
	if *baseline != "" {
		data, err := os.ReadFile(*baseline)
		if err != nil {
			log.Fatal(err)
		}
		var base Report
		if err := json.Unmarshal(data, &base); err != nil {
			log.Fatalf("parsing %s: %v", *baseline, err)
		}
		base.Baseline = nil // keep one level of history per file
		rep.Baseline = &base
	}

	path := *outPath
	if path == "" {
		path = "BENCH_" + rep.Date + ".json"
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s", path)
	if *md {
		fmt.Println(markdown(rep))
	}
}

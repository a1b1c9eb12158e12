package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"time"

	"qcloud/internal/analysis"
	"qcloud/internal/backend"
	"qcloud/internal/circuit/gens"
	"qcloud/internal/cloud"
	"qcloud/internal/compile"
	"qcloud/internal/par"
	"qcloud/internal/qsim"
	"qcloud/internal/trace"
	"qcloud/internal/workload"
)

// studyPassSec is the nominal length of one measured study pass; its
// serial reference check comes on top.
const studyPassSec = 10

// studyWorkers is the fan-out of the fleet simulation and the analysis
// sweeps: the host class the ledger is recorded on has two CPUs.
const studyWorkers = 2

// Fig 7's machines and calibration instant, as qcloud-analyze uses them.
var (
	fig7Names = []string{"ibmq_casablanca", "ibmq_toronto", "ibmq_guadalupe", "ibmq_rome", "ibmq_manhattan"}
	fig7At    = time.Date(2021, 3, 10, 12, 0, 0, 0, time.UTC)
)

func fig7Machines() []*backend.Machine {
	byName := backend.FleetByName()
	ms := make([]*backend.Machine, len(fig7Names))
	for i, n := range fig7Names {
		ms[i] = byName[n]
	}
	return ms
}

// studyOut is one pass from seed to every figure.
type studyOut struct {
	csv       []byte
	digest    []byte // deterministic figure values
	wall, cpu float64
	rss       float64 // peak resident set during the pass, MB
	fig5Sec   float64 // Fig 5's own per-pass compile totals
	allocMB   float64
	allocs    float64
}

// runStudy measures study-2y: workload.Generate → cloud.Simulate (2
// workers) → trace CSV → every qcloud-analyze figure. A seed's cost
// follows its circuit count, so a run measures distinct inputs derived
// from its seed and reports medians. Each input is checked against a
// 1-worker reference: the same trace CSV, and the same figure values
// when the figures are computed serially from the reference trace.
func runStudy(r *run) error {
	par.SetWorkers(studyWorkers)
	defer par.SetWorkers(0)
	cfgOf := func(k int) workload.Config {
		cfg := workload.Config{Seed: subSeed(r.seed, k), TotalJobs: r.p.StudyJobs}
		if r.p.StudyDays > 0 {
			cfg.Start = backend.StudyStart
			cfg.End = cfg.Start.Add(time.Duration(r.p.StudyDays * 24 * float64(time.Hour)))
		}
		return cfg
	}

	var setups []float64
	var outs []studyOut
	n := r.passes(studyPassSec, 1)
	for k := 0; k < n; k++ {
		for i := 0; i < r.setupsPerPass(n); i++ {
			runtime.GC()
			t0 := time.Now()
			workload.Generate(cfgOf(k))
			setups = append(setups, time.Since(t0).Seconds())
		}
		out, err := studyOnce(r, cfgOf(k))
		if err != nil {
			return err
		}
		outs = append(outs, out)
		if err := checkStudy(r, k, cfgOf(k), out); err != nil {
			return err
		}
	}
	med := func(f func(studyOut) float64) float64 {
		xs := make([]float64, len(outs))
		for i, o := range outs {
			xs[i] = f(o)
		}
		return median(xs)
	}
	wall := med(func(o studyOut) float64 { return o.wall })
	r.e2e["setup_s"] = median(setups)
	r.e2e["wall_s"] = wall
	r.e2e["cpu_s"] = med(func(o studyOut) float64 { return o.cpu })
	r.note("setup_s", "s", median(setups))
	r.note("peak_rss_mb", "MB", med(func(o studyOut) float64 { return o.rss }))
	r.note("analyze_s", "s", wall)
	r.note("passes", "count", float64(len(outs)))

	if !r.tr.On() {
		return nil
	}
	// Per-layer values are medians over the passes, like the
	// end-to-end ones.
	perPass := func(name string) float64 { return median(r.tr.Durations(name)) / 1e3 }
	r.layer["workload.generate_s"] = perPass("workload.generate")
	r.layer["cloud.simulate_s"] = perPass("cloud.simulate")
	r.layer["cloud.alloc_mb"] = med(func(o studyOut) float64 { return o.allocMB })
	r.layer["cloud.allocs"] = med(func(o studyOut) float64 { return o.allocs })
	r.layer["trace.write_csv_s"] = perPass("trace.write_csv")
	r.layer["trace.csv_bytes"] = med(func(o studyOut) float64 { return float64(len(o.csv)) })
	r.layer["analysis.trace_figures_s"] = perPass("analysis.trace_figures")
	r.layer["analysis.substrate_s"] = perPass("analysis.substrate")
	return fig7Probe(r, cfgOf(0).Seed, outs[0].fig5Sec)
}

// checkStudy compares one pass with a serial reference of its input,
// outside every timed span.
func checkStudy(r *run, k int, cfg workload.Config, out studyOut) error {
	defer r.tr.Pause()()
	par.SetWorkers(1)
	defer par.SetWorkers(studyWorkers)
	ref, err := cloud.Simulate(cloud.Config{Seed: cfg.Seed, Start: cfg.Start, End: cfg.End, Workers: 1}, workload.Generate(cfg))
	if err != nil {
		return err
	}
	var csv, dig bytes.Buffer
	if err := trace.WriteCSV(&csv, ref.Jobs); err != nil {
		return err
	}
	traceFigures(&dig, ref, cfg.Seed)
	if _, err := substrateFigures(&dig, cfg.Seed, r.p); err != nil {
		return err
	}
	r.check(len(ref.Jobs) > 0, "study: input %d: empty reference trace", k)
	r.check(bytes.Equal(out.csv, csv.Bytes()), "study: input %d: trace differs from the 1-worker reference", k)
	r.check(bytes.Equal(out.digest, dig.Bytes()), "study: input %d: figures differ from the serial reference", k)
	return nil
}

// studyOnce is one timed pass from seed to every figure.
func studyOnce(r *run, cfg workload.Config) (studyOut, error) {
	t := r.tr
	var out studyOut
	resetPeakRSS()
	cpu0, t0 := cpuTime(), time.Now()
	root := t.Start("study", -1, -1)

	var specs []*cloud.JobSpec
	t.Do("workload.generate", root, func() { specs = workload.Generate(cfg) })

	var tr *trace.Trace
	var err error
	out.allocMB, out.allocs = allocDelta(func() {
		t.Do("cloud.simulate", root, func() {
			tr, err = cloud.Simulate(cloud.Config{Seed: cfg.Seed, Start: cfg.Start, End: cfg.End, Workers: studyWorkers}, specs)
		})
	})
	if err != nil {
		return out, err
	}

	var csv bytes.Buffer
	t.Do("trace.write_csv", root, func() { err = trace.WriteCSV(&csv, tr.Jobs) })
	if err != nil {
		return out, err
	}

	var dig bytes.Buffer
	t.Do("analysis.trace_figures", root, func() { traceFigures(&dig, tr, cfg.Seed) })
	t.Do("analysis.substrate", root, func() { out.fig5Sec, err = substrateFigures(&dig, cfg.Seed, r.p) })
	if err != nil {
		return out, err
	}
	t.End(root)

	out.wall = time.Since(t0).Seconds()
	out.cpu = (cpuTime() - cpu0).Seconds()
	out.rss = peakRSSMB()
	out.csv = csv.Bytes()
	out.digest = dig.Bytes()
	return out, nil
}

// traceFigures computes every trace-driven figure (2a-4, 8-16) with
// qcloud-analyze's parameters and writes their values to w.
func traceFigures(w *bytes.Buffer, tr *trace.Trace, seed int64) {
	fmt.Fprintln(w, analysis.CumulativeTrials(tr))
	fmt.Fprintln(w, analysis.StatusBreakdown(tr))
	fmt.Fprintln(w, analysis.QueueShapeOf(tr), analysis.SortedCircuitQueuingTimes(tr))
	fmt.Fprintln(w, analysis.QueueExecRatios(tr))
	fmt.Fprintln(w, analysis.UtilizationByMachine(tr))
	from := time.Date(2021, 3, 8, 0, 0, 0, 0, time.UTC)
	fmt.Fprintln(w, analysis.PendingJobsByMachine(tr, from, from.AddDate(0, 0, 7)))
	fmt.Fprintln(w, analysis.QueuingByMachine(tr))
	fmt.Fprintln(w, analysis.ByBatchSize(tr, nil))
	fmt.Fprintln(w, analysis.CalibrationCrossovers(tr))
	fmt.Fprintln(w, analysis.RuntimeByMachine(tr))
	fmt.Fprintln(w, analysis.RuntimeVsBatch(tr))
	fmt.Fprintln(w, analysis.PredictionCorrelations(tr, 80, seed))
	// Fig 16: the four busiest machines' prediction series.
	byMachine := tr.JobsByMachine()
	names := make([]string, 0, len(byMachine))
	for n := range byMachine {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if len(byMachine[names[i]]) != len(byMachine[names[j]]) {
			return len(byMachine[names[i]]) > len(byMachine[names[j]])
		}
		return names[i] < names[j]
	})
	shown := 0
	for _, name := range names {
		actual, predicted, err := analysis.PredictionSeries(tr, name, seed)
		if err != nil {
			continue
		}
		fmt.Fprintln(w, name, actual, predicted)
		if shown++; shown == 4 {
			break
		}
	}
}

// substrateFigures computes Figs 5, 6, 7 and 12b at qcloud-analyze's
// parameters, writes their deterministic values to w, and returns Fig
// 5's summed per-pass compile seconds.
func substrateFigures(w *bytes.Buffer, seed int64, p params) (float64, error) {
	costs, err := analysis.CompilePassProfile(8, backend.FleetByName()["ibmq_16_melbourne"], p.Fig5Large, nil, seed)
	if err != nil {
		return 0, err
	}
	fig5 := 0.0
	for _, c := range costs {
		fmt.Fprintln(w, c.Pass) // pass timings are wall clock, not checked
		fig5 += c.SmallSec + c.LargeSec
	}
	fmt.Fprintln(w, analysis.BisectionTable(backend.Fleet()))
	rows, err := analysis.FidelityVsCXMetrics(fig7Machines(), 4, p.Fig7Shots, fig7At, seed)
	if err != nil {
		return 0, err
	}
	fmt.Fprintln(w, rows)
	div, err := analysis.LayoutDivergenceOf(gens.QFT(4), backend.FleetByName()["ibmq_toronto"],
		time.Date(2021, 2, 1, 12, 0, 0, 0, time.UTC), 14, seed)
	if err != nil {
		return 0, err
	}
	fmt.Fprintln(w, div.ChangedFraction, div.Layouts)
	return fig5, nil
}

// fig7Probe rebuilds the Fig 7 jobs the way qcloud-bench's fig7Jobs
// does, timing the compiles and the BatchRun separately, and counts
// the kernel sweeps the jobs compute.
func fig7Probe(r *run, seed int64, fig5Sec float64) error {
	t := r.tr
	root := t.Start("fig7.probe", -1, -1)
	defer t.End(root)
	var jobs []qsim.BatchJob
	compileSec := fig5Sec
	for _, m := range fig7Machines() {
		cal := m.CalibrationAt(fig7At)
		var res *compile.Result
		var err error
		compileSec += t.Do("compile", root, func() {
			res, err = compile.Compile(gens.QFTBench(4), m, cal, compile.Options{Seed: seed})
		}).Seconds()
		if err != nil {
			return fmt.Errorf("%s: %w", m.Name, err)
		}
		compacted, origOf := qsim.Compact(res.Circ)
		jobs = append(jobs, qsim.BatchJob{
			Circ:  compacted,
			Shots: r.p.Fig7Shots,
			Noise: qsim.NoiseFromCalibration(cal, 0).Remap(origOf),
			Seed:  seed + m.Seed,
		})
	}
	var results []qsim.BatchResult
	batch := t.Do("qsim.batchrun", root, func() {
		results = qsim.BatchRun(jobs, qsim.Parallelism{Workers: studyWorkers})
	})
	failed := 0
	for _, res := range results {
		if res.Err != nil {
			failed++
		}
	}
	r.ops(len(results), failed)
	sweeps, bytesComputed, err := kernelWork(jobs)
	if err != nil {
		return err
	}
	r.layer["compile.s"] = compileSec
	r.layer["qsim.batchrun_s"] = batch.Seconds()
	r.layer["qsim.sweeps"] = sweeps
	r.layer["qsim.bytes_computed"] = bytesComputed
	return nil
}

// kernelWork is the computed (not measured) simulator work of a batch:
// qsim.KernelCounts' 2q-blocked op count times the trajectories each
// job runs (its shots when noisy, one exact evolution when
// noiseless), and the state-vector bytes those sweeps touch (16 B per
// amplitude).
func kernelWork(jobs []qsim.BatchJob) (sweeps, bytesComputed float64, err error) {
	for _, j := range jobs {
		_, _, blocked, err := qsim.KernelCounts(j.Circ, j.Noise)
		if err != nil {
			return 0, 0, err
		}
		traj := 1.0
		if j.Noise != nil {
			traj = float64(j.Shots)
		}
		s := float64(blocked) * traj
		sweeps += s
		bytesComputed += s * 16 * float64(uint64(1)<<uint(j.Circ.NQubits))
	}
	return sweeps, bytesComputed, nil
}

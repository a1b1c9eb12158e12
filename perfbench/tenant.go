package main

import (
	"bytes"
	"runtime"
	"time"

	"qcloud/internal/backend"
	"qcloud/internal/cloud"
	"qcloud/internal/tenant"
	"qcloud/internal/trace"
	"qcloud/internal/workload"
)

// tenantWorkers is the session fan-out under the broker.
const tenantWorkers = 2

// tenantInputSec is the nominal time one tenant input takes, measured
// pass and reference together.
const tenantInputSec = 4

// tenantBench is the tenant-200 workload: the skewed scenario with
// preemption on, over a window starting at the study start.
type tenantBench struct {
	r          *run
	sc         workload.TenantScenario
	start, end time.Time
}

// tenantPass is one brokered pass over one input.
type tenantPass struct {
	csv              []byte
	wall, cpu, setup float64
	rss              float64
	preempts         int
}

func (tb *tenantBench) cloudConfig(seed int64, workers int) cloud.Config {
	return cloud.Config{Seed: seed, Start: tb.start, End: tb.end, Workers: workers}
}

func (tb *tenantBench) build(seed int64) (tenant.Config, []tenant.Submission) {
	tcfg, subs := tb.sc.Build(workload.TenantConfig{
		Seed: seed, Start: tb.start, End: tb.end,
		Tenants: tb.r.p.Tenants, TotalJobs: tb.r.p.TenantJobs,
	})
	tcfg.Preemption = true
	return tcfg, subs
}

// setup builds the input's scenario and opens a broker on it, and
// returns how long that took.
func (tb *tenantBench) setup(seed int64, workers int) (*tenant.Broker, []tenant.Submission, float64, error) {
	runtime.GC()
	t0 := time.Now()
	var tcfg tenant.Config
	var subs []tenant.Submission
	tb.r.tr.Do("workload.generate", -1, func() { tcfg, subs = tb.build(seed) })
	b, err := tenant.Open(tb.cloudConfig(seed, workers), tcfg)
	return b, subs, time.Since(t0).Seconds(), err
}

// once times Play through Run on a broker set up for the input.
func (tb *tenantBench) once(seed int64, workers int) (tenantPass, error) {
	t := tb.r.tr
	var out tenantPass
	b, subs, setup, err := tb.setup(seed, workers)
	if err != nil {
		return out, err
	}
	out.setup = setup
	resetPeakRSS()
	cpu0, t1 := cpuTime(), time.Now()
	root := t.Start("tenant.run", -1, -1)
	t.Do("tenant.play", root, func() { err = b.Play(subs) })
	if err != nil {
		return out, err
	}
	var tr *trace.Trace
	t.Do("tenant.finish", root, func() { tr, err = b.Run() })
	if err != nil {
		return out, err
	}
	t.End(root)
	out.wall = time.Since(t1).Seconds()
	out.cpu = (cpuTime() - cpu0).Seconds()
	out.rss = peakRSSMB()
	out.preempts = b.Preemptions()

	var buf bytes.Buffer
	t.Do("trace.write_csv", -1, func() { err = trace.WriteCSV(&buf, tr.Jobs) })
	out.csv = buf.Bytes()
	return out, err
}

// check compares a pass with an untraced 1-worker run of its input.
func (tb *tenantBench) check(k int, seed int64, p tenantPass) error {
	resume := tb.r.tr.Pause()
	ref, err := tb.once(seed, 1)
	resume()
	if err != nil {
		return err
	}
	tb.r.check(len(ref.csv) > 0, "tenant: input %d: empty reference trace", k)
	tb.r.check(ref.preempts == p.preempts, "tenant: input %d: %d preemptions, reference %d", k, p.preempts, ref.preempts)
	tb.r.check(bytes.Equal(p.csv, ref.csv), "tenant: input %d: trace differs from the 1-worker reference", k)
	return nil
}

// direct submits the input's stream straight into a session with no
// broker: what the fleet alone costs under the brokered pass. It
// returns the cloud.Simulate time and its heap allocation.
func (tb *tenantBench) direct(seed int64) (sec, mb, allocs float64, err error) {
	_, subs := tb.build(seed)
	specs := make([]*cloud.JobSpec, len(subs))
	for i, sub := range subs {
		s := *sub.Spec
		s.User = "tenant:" + sub.Queue
		specs[i] = &s
	}
	var d time.Duration
	mb, allocs = allocDelta(func() {
		d = tb.r.tr.Do("cloud.simulate", -1, func() { _, err = cloud.Simulate(tb.cloudConfig(seed, tenantWorkers), specs) })
	})
	return d.Seconds(), mb, allocs, err
}

// runTenant measures tenant-200, Play through Run on a fresh broker.
// Scenario cost depends on the drawn quota tree, so a run measures
// several inputs derived from its seed and reports medians. Each
// input's trace is checked against a 1-worker run of the same input.
// setup_s is the median of the set-ups, spread over the inputs: each
// input is set up a few times, and the last set-up serves its pass.
func runTenant(r *run) error {
	sc, err := workload.FindTenantScenario("skewed")
	if err != nil {
		return err
	}
	start := backend.StudyStart
	tb := &tenantBench{r: r, sc: sc, start: start,
		end: start.Add(time.Duration(r.p.TenantDays * 24 * float64(time.Hour)))}

	var setups, walls, cpus, rsss, preempts, csvBytes, sims, mbs, allocs, overheads []float64
	n := r.passes(tenantInputSec, 3)
	for k := 0; k < n; k++ {
		seed := subSeed(r.seed, k)
		for i := 1; i < r.setupsPerPass(n); i++ {
			b, _, d, err := tb.setup(seed, tenantWorkers)
			if err != nil {
				return err
			}
			setups = append(setups, d)
			if err := b.Close(); err != nil {
				return err
			}
		}
		p, err := tb.once(seed, tenantWorkers)
		if err != nil {
			return err
		}
		setups = append(setups, p.setup)
		walls, cpus, rsss = append(walls, p.wall), append(cpus, p.cpu), append(rsss, p.rss)
		preempts, csvBytes = append(preempts, float64(p.preempts)), append(csvBytes, float64(len(p.csv)))
		if err := tb.check(k, seed, p); err != nil {
			return err
		}
		if r.tr.On() {
			sim, mb, n, err := tb.direct(seed)
			if err != nil {
				return err
			}
			sims, mbs, allocs = append(sims, sim), append(mbs, mb), append(allocs, n)
			overheads = append(overheads, p.wall-sim)
		}
	}
	r.e2e["setup_s"] = median(setups)
	r.e2e["wall_s"] = median(walls)
	r.e2e["cpu_s"] = median(cpus)
	r.note("setup_s", "s", median(setups))
	r.note("peak_rss_mb", "MB", median(rsss))
	r.note("tenant_run_s", "s", median(walls))
	r.note("inputs", "count", float64(len(walls)))

	if r.tr.On() {
		// Medians over the inputs, like the end-to-end values.
		r.layer["workload.generate_s"] = median(r.tr.Durations("workload.generate")) / 1e3
		r.layer["cloud.simulate_s"] = median(sims)
		r.layer["cloud.alloc_mb"] = median(mbs)
		r.layer["cloud.allocs"] = median(allocs)
		r.layer["tenant.broker_overhead_s"] = median(overheads)
		r.layer["tenant.preemptions"] = median(preempts)
		r.layer["trace.write_csv_s"] = median(r.tr.Durations("trace.write_csv")) / 1e3
		r.layer["trace.csv_bytes"] = median(csvBytes)
	}
	return nil
}

// Command perfbench is the repository's end-to-end benchmark. One run
// measures one workload for a fixed time budget and prints, as the
// last line of stdout, a JSON object with the output-check verdict and
// the run's metrics:
//
//	perfbench --workload study-2y --seed 1 --seconds 20 --trace 0
//
// Workloads:
//
//   - study-2y: the paper's two-year study, seed to every figure
//     (workload.Generate → cloud.Simulate → trace CSV → every
//     qcloud-analyze figure).
//   - service-30d: a dispatcher, two pulling workers and one load
//     generator over loopback TCP, submitting a 30-day study window.
//   - tenant-200: the skewed 200-tenant scenario through tenant.Broker.
//
// --workload all runs the three in turn and prints every workload's
// named metrics.
//
// With --trace 0 the metrics are the end-to-end set every workload
// reports (setup_s, wall_s, cpu_s). With --trace 1 the run is made
// twice on the same inputs, untraced and then traced; the traced run
// times each layer from outside, by wrapping calls into the layers'
// public APIs, and the run reports the per-layer set instead, plus the
// tracing overhead of the traced run against the untraced one.
// Spans are kept in memory and written to
// .bench_build/perfbench/spans-<workload>-<seed>.jsonl when the run
// ends.
//
// Lines before the JSON are the human-readable ledger: the hw stamp
// and every named metric of the workload with its unit.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd is the metric set every workload reports with --trace 0.
// Each workload defines wall_s as its headline time: seed to every
// figure (study-2y); the burst through the last terminal unit, plus
// fetching both CSV planes, plus one reopening (service-30d, leaving
// out the open-loop phase, whose length its fixed rate sets); Play
// through Run (tenant-200). cpu_s is the process CPU time of the
// measured work. Peak RSS is in every ledger but not in this set: on
// study-2y it tracks the seed's circuit count (0.8-2.0 M), so it
// varies more across seeds than any bound allows.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
}

// perLayer is the metric set every workload reports with --trace 1.
// A layer the workload never calls reports 0.
var perLayer = []metricDef{
	{"workload.generate_s", "s"},
	{"cloud.simulate_s", "s"},
	{"cloud.alloc_mb", "MB"},
	{"cloud.allocs", "count"},
	{"tenant.broker_overhead_s", "s"},
	{"tenant.preemptions", "count"},
	{"trace.write_csv_s", "s"},
	{"trace.csv_bytes", "B"},
	{"analysis.trace_figures_s", "s"},
	{"analysis.substrate_s", "s"},
	{"compile.s", "s"},
	{"qsim.batchrun_s", "s"},
	{"qsim.sweeps", "count"},
	{"qsim.bytes_computed", "B"},
	{"http.submit.p50_ms", "ms"},
	{"http.submit.p99_ms", "ms"},
	{"http.submit.n", "count"},
	{"http.client_overhead_ms", "ms"},
	{"http.pull.p50_ms", "ms"},
	{"http.pull.n", "count"},
	{"http.result.p50_ms", "ms"},
	{"http.heartbeat.n", "count"},
	{"http.trace.s", "s"},
	{"http.counts.s", "s"},
	{"dispatch.queue_wait_p50_ms", "ms"},
	{"dispatch.queue_wait_p99_ms", "ms"},
	{"dispatch.lease_p50_ms", "ms"},
	{"dispatch.pull_empty_share", "share"},
	{"dispatch.units_per_pull", "count"},
	{"dispatch.retries", "count"},
	{"dispatch.events_truncated", "count"},
	{"worker.exec_s", "s"},
	{"loadgen.late_p99_ms", "ms"},
	{"journal.submit_bytes_per_rec", "B"},
	{"journal.result_bytes_per_rec", "B"},
	{"journal.records", "count"},
	{"journal.replay_s", "s"},
	{"wire.encode_us", "us"},
	{"wire.decode_us", "us"},
	{"wire.submit_req_bytes", "B"},
	{"tracing.overhead_wall_s", "s"},
	{"tracing.overhead_cpu_s", "s"},
	{"tracing.spans", "count"},
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*run) error{
	"study-2y":    runStudy,
	"service-30d": runService,
	"tenant-200":  runTenant,
}

// params sizes the workloads. full is what the benchmark measures;
// the smoke test shrinks every size.
type params struct {
	StudyJobs     int     // expected study job count
	StudyDays     float64 // study window length (0: the paper's two years)
	Fig5Large     int     // Fig 5's large QFT size
	Fig7Shots     int     // Fig 7's trajectory shots per machine
	ServiceJobs   int     // expected submissions in the service window
	ServiceDays   float64 // service window length
	OpenLoop      int     // submissions sent open-loop, the rest burst
	OpenRate      float64 // open-loop submissions per second
	TenantJobs    int     // expected tenant submissions
	Tenants       int     // tenant queue count
	TenantDays    float64 // tenant arrival window
	SetupRepeats  int     // set-ups per run, spread over its passes (setup_s is their median)
	RecoverRepeat int     // dispatcher reopenings per session
}

var full = params{
	StudyJobs:     6200,
	Fig5Large:     64,
	Fig7Shots:     800,
	ServiceJobs:   20000,
	ServiceDays:   30,
	OpenLoop:      8000,
	OpenRate:      1000,
	TenantJobs:    20000,
	Tenants:       200,
	TenantDays:    21,
	SetupRepeats:  24,
	RecoverRepeat: 3,
}

// run is one invocation's state: inputs, tracer, and what it reports.
type run struct {
	workload string
	seed     int64
	seconds  float64
	p        params
	tr       *Tracer
	dir      string // scratch directory for WALs and spans

	// ledger holds the workload's named metrics, printed before the
	// JSON line.
	ledger []ledgerRow
	// e2e and layer hold the values reported in the JSON line.
	e2e   map[string]float64
	layer map[string]float64

	attempted, failed int
	mismatches        []string
}

type ledgerRow struct {
	name, unit string
	value      float64
}

func (r *run) note(name, unit string, v float64) {
	r.ledger = append(r.ledger, ledgerRow{name, unit, v})
}

// check counts one output check; a failing one is a failed operation.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.mismatches = append(r.mismatches, fmt.Sprintf(format, args...))
	}
}

// ops counts n attempted operations of which failed failed.
func (r *run) ops(n, failed int) {
	r.attempted += n
	r.failed += failed
}

// passes is how many passes (or distinct inputs) a run measures: as
// many as fit in the time budget at per seconds each, and at least
// min. It depends only on the budget, never on how fast the passes
// ran, so a seed always gives the same inputs and the same count.
func (r *run) passes(per float64, min int) int {
	return max(min, int(r.seconds/per))
}

// setupsPerPass spreads a run's SetupRepeats set-ups evenly over its
// n passes, at least one before each, so setup_s samples the whole run
// rather than its first moments.
func (r *run) setupsPerPass(n int) int {
	return max(1, (r.p.SetupRepeats+n-1)/n)
}

// subSeed derives input k's seed from the run's seed.
func subSeed(seed int64, k int) int64 { return seed*1000 + int64(k) }

// allocDelta runs fn and returns the heap it allocated, in MB and in
// objects (MemStats deltas, so concurrent goroutines count too).
func allocDelta(fn func()) (mb, objects float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.TotalAlloc-a.TotalAlloc) / (1 << 20), float64(b.Mallocs - a.Mallocs)
}

// result is the JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS starts a fresh peak-RSS window: it collects garbage,
// returns the freed heap to the OS and resets the kernel's high-water
// mark for this process, so each iteration's peak is its own.
func resetPeakRSS() {
	debug.FreeOSMemory()
	if f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0); err == nil {
		f.WriteString("5")
		f.Close()
	}
}

// peakRSSMB is the process's peak resident set since the last
// resetPeakRSS (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// hwStamp is the host stamp in qcloud-bench's "hw:" form, flagged when
// the host has a single CPU: parallel numbers from such a host measure
// goroutine overhead, not the system.
func hwStamp() string {
	s := fmt.Sprintf("hw: NumCPU=%d GOMAXPROCS=%d go=%s", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	if runtime.NumCPU() < 2 || runtime.GOMAXPROCS(0) < 2 {
		s += " NOT-COMPARABLE(single CPU)"
	}
	return s
}

// execute runs one workload and fills r's metrics. A traced run runs
// the workload twice on the same inputs, untraced and then traced: the
// ledger and the end-to-end values come from the untraced run, the
// per-layer values from the traced one, and the tracing overhead is
// the difference of the two runs' wall_s and cpu_s.
func execute(r *run) error {
	fn, ok := workloads[r.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want study-2y, service-30d, tenant-200 or all)", r.workload)
	}
	r.e2e = map[string]float64{}
	r.layer = map[string]float64{}
	resume := r.tr.Pause()
	if err := fn(r); err != nil {
		return err
	}
	resume()
	if r.tr.On() {
		plain, ledger := r.e2e, r.ledger
		r.e2e, r.ledger = map[string]float64{}, nil
		if err := fn(r); err != nil {
			return err
		}
		r.layer["tracing.overhead_wall_s"] = r.e2e["wall_s"] - plain["wall_s"]
		r.layer["tracing.overhead_cpu_s"] = r.e2e["cpu_s"] - plain["cpu_s"]
		r.e2e, r.ledger = plain, ledger
	}
	r.note("failed_share", "share", float64(r.failed)/float64(max(r.attempted, 1)))
	r.layer["tracing.spans"] = float64(len(r.tr.Spans()))
	return nil
}

// report assembles the JSON line for the chosen metric set.
func (r *run) report(defs []metricDef, vals map[string]float64) result {
	res := result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	return res
}

func (r *run) printLedger() {
	fmt.Printf("%s workload=%s seed=%d trace=%v\n", hwStamp(), r.workload, r.seed, r.tr.On())
	for _, row := range r.ledger {
		fmt.Printf("  %-28s %14.6f %s\n", r.workload+"."+row.name, row.value, row.unit)
	}
	for _, m := range r.mismatches {
		fmt.Printf("  CHECK FAILED: %s\n", m)
	}
	if r.tr.On() {
		names := make([]string, 0, len(r.layer))
		for n := range r.layer {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("  layer %-32s %14.6f\n", n, r.layer[n])
		}
	}
}

// writeSpans dumps the run's spans next to the build outputs.
func (r *run) writeSpans() error {
	if len(r.tr.Spans()) == 0 {
		return nil
	}
	path := filepath.Join(r.dir, fmt.Sprintf("spans-%s-%d.jsonl", r.workload, r.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.tr.writeJSONL(f); err != nil {
		f.Close()
		return err
	}
	fmt.Printf("spans: %s\n", path)
	return f.Close()
}

func main() {
	var (
		wl      = flag.String("workload", "", "study-2y, service-30d, tenant-200, or all")
		seed    = flag.Int64("seed", 1, "input seed (the same seed gives the same inputs)")
		seconds = flag.Float64("seconds", 20, "time budget: sets how many passes or inputs the run measures")
		trace   = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	dir := filepath.Join(".bench_build", "perfbench")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	names := []string{*wl}
	if *wl == "all" {
		names = []string{"study-2y", "service-30d", "tenant-200"}
	}
	combined := result{Correct: true, Metrics: map[string]metric{}}
	var last result
	for _, name := range names {
		r := &run{workload: name, seed: *seed, seconds: *seconds, p: full, tr: newTracer(*trace == 1), dir: dir}
		if err := execute(r); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		r.printLedger()
		if err := r.writeSpans(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		if r.tr.On() {
			last = r.report(perLayer, r.layer)
		} else {
			last = r.report(endToEnd, r.e2e)
		}
		combined.Correct = combined.Correct && last.Correct
		combined.Attempted += last.Attempted
		combined.Failed += last.Failed
		for _, row := range r.ledger {
			combined.Metrics[name+"."+row.name] = metric{Value: row.value, Unit: row.unit}
		}
	}
	if *wl == "all" {
		last = combined
	}
	out, err := json.Marshal(last)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// Per-figure benchmark harness: one benchmark per table/figure of the
// paper, regenerating the underlying data. Trace-driven figures share a
// single generated trace (the dominant cost is the two-year cloud
// simulation, benchmarked separately as BenchmarkTraceGeneration).
//
// Run everything:
//
//	go test -bench=. -benchmem
package qcloud_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"qcloud/internal/analysis"
	"qcloud/internal/backend"
	"qcloud/internal/circuit"
	"qcloud/internal/circuit/gens"
	"qcloud/internal/cloud"
	"qcloud/internal/compile"
	"qcloud/internal/par"
	"qcloud/internal/qsim"
	"qcloud/internal/trace"
	"qcloud/internal/workload"
)

var (
	benchOnce  sync.Once
	benchTrace *trace.Trace
	benchErr   error
)

// benchFixture generates the shared study trace once (seeded, ~2500
// jobs so the prediction benchmarks have per-machine depth).
func benchFixture(b *testing.B) *trace.Trace {
	b.Helper()
	benchOnce.Do(func() {
		specs := workload.Generate(workload.Config{Seed: 42, TotalJobs: 2500})
		benchTrace, benchErr = cloud.Simulate(cloud.Config{Seed: 42}, specs)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchTrace
}

// BenchmarkTraceGeneration measures the full workload + cloud pipeline
// that every trace-driven figure depends on (a scaled two-year study).
func BenchmarkTraceGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		specs := workload.Generate(workload.Config{Seed: int64(i + 1), TotalJobs: 600})
		if _, err := cloud.Simulate(cloud.Config{Seed: int64(i + 1)}, specs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig02aCumulativeTrials(b *testing.B) {
	tr := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		months := analysis.CumulativeTrials(tr)
		if len(months) == 0 {
			b.Fatal("no months")
		}
	}
}

func BenchmarkFig02bStatusBreakdown(b *testing.B) {
	tr := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if analysis.StatusBreakdown(tr)[trace.StatusDone] == 0 {
			b.Fatal("no DONE jobs")
		}
	}
}

func BenchmarkFig03QueuingTimes(b *testing.B) {
	tr := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if analysis.QueueShapeOf(tr).TotalCircuits == 0 {
			b.Fatal("no circuits")
		}
	}
}

func BenchmarkFig04QueueExecRatio(b *testing.B) {
	tr := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(analysis.QueueExecRatios(tr)) == 0 {
			b.Fatal("no ratios")
		}
	}
}

// BenchmarkFig05CompilePasses runs the per-pass profile at a scaled
// size (QFT 8 -> melbourne vs QFT 64 -> fake 1000q). The paper's
// full-size 980q instance is available via cmd/qcloud-compilebench.
func BenchmarkFig05CompilePasses(b *testing.B) {
	small := backend.FleetByName()["ibmq_16_melbourne"]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := analysis.CompilePassProfile(8, small, 64, nil, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig06Bisection(b *testing.B) {
	fleet := backend.Fleet()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(analysis.BisectionTable(fleet)) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkFig07Fidelity runs the five-machine fidelity sweep serially
// and on a 4-worker pool (machines fan out and each machine's shots run
// on the trajectory pool); the serial/parallel pair in BENCH_*.json is
// the sweep's speedup record. Rows are bit-identical in both modes.
func BenchmarkFig07Fidelity(b *testing.B) {
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
		b.Run(mode.name, func(b *testing.B) {
			par.SetWorkers(mode.workers)
			defer par.SetWorkers(0)
			for i := 0; i < b.N; i++ {
				if _, err := analysis.FidelityVsCXMetrics(machines, 4, 300, at, int64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig08Utilization(b *testing.B) {
	tr := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(analysis.UtilizationByMachine(tr)) == 0 {
			b.Fatal("no machines")
		}
	}
}

func BenchmarkFig09PendingJobs(b *testing.B) {
	tr := benchFixture(b)
	from := time.Date(2021, 3, 8, 0, 0, 0, 0, time.UTC)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(analysis.PendingJobsByMachine(tr, from, from.AddDate(0, 0, 7))) == 0 {
			b.Fatal("no pending rows")
		}
	}
}

func BenchmarkFig10QueueByMachine(b *testing.B) {
	tr := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(analysis.QueuingByMachine(tr)) == 0 {
			b.Fatal("no machines")
		}
	}
}

func BenchmarkFig11QueueVsBatch(b *testing.B) {
	tr := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(analysis.ByBatchSize(tr, nil)) == 0 {
			b.Fatal("no buckets")
		}
	}
}

func BenchmarkFig12aCrossover(b *testing.B) {
	tr := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if analysis.CalibrationCrossovers(tr) <= 0 {
			b.Fatal("no crossovers")
		}
	}
}

func BenchmarkFig12bRemap(b *testing.B) {
	m := backend.FleetByName()["ibmq_toronto"]
	t0 := time.Date(2021, 2, 1, 12, 0, 0, 0, time.UTC)
	circ := gens.QFT(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := analysis.LayoutDivergenceOf(circ, m, t0, 8, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig13RuntimeByMachine(b *testing.B) {
	tr := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(analysis.RuntimeByMachine(tr)) == 0 {
			b.Fatal("no machines")
		}
	}
}

func BenchmarkFig14RuntimeVsBatch(b *testing.B) {
	tr := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if analysis.RuntimeVsBatch(tr).N == 0 {
			b.Fatal("no jobs")
		}
	}
}

func BenchmarkFig15Prediction(b *testing.B) {
	tr := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(analysis.PredictionCorrelations(tr, 120, int64(i))) == 0 {
			b.Fatal("no machines with enough jobs")
		}
	}
}

func BenchmarkFig16PredSeries(b *testing.B) {
	tr := benchFixture(b)
	// Use the busiest machine.
	best, bestN := "", 0
	for name, jobs := range tr.JobsByMachine() {
		if len(jobs) > bestN {
			best, bestN = name, len(jobs)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		actual, predicted, err := analysis.PredictionSeries(tr, best, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if len(actual) != len(predicted) {
			b.Fatal("length mismatch")
		}
	}
}

// BenchmarkCompileQFTSuite exercises the compiler alone across machine
// sizes — the ablation for DESIGN.md's "compilation scales with circuit
// size" claim (full-width QFT on each machine).
func BenchmarkCompileQFTSuite(b *testing.B) {
	byName := backend.FleetByName()
	cases := []struct {
		n       int
		machine string
	}{
		{4, "ibmq_vigo"},
		{8, "ibmq_16_melbourne"},
		{16, "ibmq_guadalupe"},
		{27, "ibmq_toronto"},
	}
	for _, c := range cases {
		c := c
		b.Run(c.machine, func(b *testing.B) {
			m := byName[c.machine]
			circ := gens.QFT(c.n)
			cal := m.CalibrationAt(time.Date(2021, 3, 1, 12, 0, 0, 0, time.UTC))
			for i := 0; i < b.N; i++ {
				if _, err := compile.Compile(circ, m, cal, compile.Options{Seed: int64(i)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// simModes are the execution variants the simulator benchmarks sweep:
// fully serial, a 4-worker pool, and the pre-fusion engine (serial) so
// the fusion prepass's win is measured in isolation. Counts are
// bit-identical across all three.
var simModes = []struct {
	name string
	par  qsim.Parallelism
}{
	{"serial", qsim.Parallelism{Workers: 1}},
	{"parallel-4", qsim.Parallelism{Workers: 4}},
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

// BenchmarkStatevectorScaling measures the dense simulator's gate
// throughput across register widths (the substrate cost behind the
// Fig 7 fidelity experiments). Each width runs the serial, 4-worker-
// kernel and unfused variants that can differ there: 8q runs serial
// only, 12q adds unfused, and 16q+ records the kernel-pool speedup.
// Counts are bit-identical between the variants.
func BenchmarkStatevectorScaling(b *testing.B) {
	for _, n := range []int{8, 12, 16, 20, 22} {
		n := n
		for _, mode := range simModes {
			mode := mode
			if runsSerialProgram(n, mode.par) {
				continue
			}
			b.Run(fmt.Sprintf("%dq/%s", n, mode.name), func(b *testing.B) {
				circ := gens.QFTBench(n)
				r := rand.New(rand.NewSource(1))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := qsim.RunOpts(circ, 1, nil, r, mode.par); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkTrajectoryShots measures the noisy shot pool: the same
// 10-qubit noisy benchmark dispatched serially, across 4 workers, and
// through the pre-fusion engine. Per-shot RNG streams make the merged
// counts identical in all modes.
func BenchmarkTrajectoryShots(b *testing.B) {
	circ := gens.QFTBench(10)
	noise := qsim.UniformNoise(0.001, 0.01, 0.02)
	for _, mode := range simModes {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			r := rand.New(rand.NewSource(2))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := qsim.RunOpts(circ, 256, noise, r, mode.par); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCompileApproxQFT contrasts exact and approximate QFT compile
// cost at 64 qubits — the §III-E.2 scalable-compilation lever.
func BenchmarkCompileApproxQFT(b *testing.B) {
	large := backend.Fake1000()
	cases := []struct {
		name string
		circ func() *circuit.Circuit
	}{
		{"exact", func() *circuit.Circuit { return gens.QFT(64) }},
		{"approx-d6", func() *circuit.Circuit { return gens.ApproxQFT(64, 6) }},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			circ := c.circ()
			for i := 0; i < b.N; i++ {
				res, err := compile.Compile(circ, large, nil, compile.Options{Seed: int64(i)})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Metrics.CXCount), "cx")
			}
		})
	}
}

// Command allocprobe measures cloud.Simulate's heap allocation on
// qcloud-bench's CloudFleetSweep/simulate-serial input (seed 5, ~300
// study jobs over February-March 2021, one worker), the way perfbench
// reports cloud.alloc_mb: a MemStats delta around the call. bisect.sh
// copies it into checkouts of older commits, so it uses only API that
// has existed since the session redesign.
package main

import (
	"fmt"
	"runtime"
	"time"

	"qcloud/internal/cloud"
	"qcloud/internal/workload"
)

func main() {
	start := time.Date(2021, 2, 1, 0, 0, 0, 0, time.UTC)
	end := start.AddDate(0, 2, 0)
	specs := workload.Generate(workload.Config{Seed: 5, TotalJobs: 300, Start: start, End: end})
	cfg := cloud.Config{Seed: 5, Start: start, End: end, Workers: 1}
	if _, err := cloud.Simulate(cfg, specs); err != nil { // warm-up, as qcloud-bench does
		panic(err)
	}
	const iters = 3
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	for i := 0; i < iters; i++ {
		if _, err := cloud.Simulate(cfg, specs); err != nil {
			panic(err)
		}
	}
	runtime.ReadMemStats(&b)
	fmt.Printf("cloud.alloc_mb=%.3f bytes_per_op=%d allocs_per_op=%d jobs=%d\n",
		float64(b.TotalAlloc-a.TotalAlloc)/iters/(1<<20),
		(b.TotalAlloc-a.TotalAlloc)/iters, (b.Mallocs-a.Mallocs)/iters, len(specs))
}

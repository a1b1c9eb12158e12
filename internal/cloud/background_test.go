package cloud

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"qcloud/internal/backend"
)

// refDiurnalFactor is diurnalFactor as it was before the integer
// buckets: the reference the exactness test holds the new path to.
func refDiurnalFactor(secIntoSim float64) float64 {
	hourOfDay := math.Mod(secIntoSim/3600, 24)
	dayOfWeek := int(math.Mod(secIntoSim/86400, 7))
	f := 0.45
	if hourOfDay >= 13 && hourOfDay < 23 {
		f = 1.9 // global working-hours burst
	} else if hourOfDay >= 7 && hourOfDay < 13 {
		f = 1.0
	}
	if dayOfWeek >= 5 {
		f *= 0.7
	}
	return f
}

// refRateAt is rateAt's formula before the ramp constants were hoisted.
func refRateAt(bs *backgroundStream, t float64) float64 {
	frac := (t - bs.rampStartSec) / math.Max(bs.rampEndSec-bs.rampStartSec, 1)
	ramp := bs.model.RampFloor + (1-bs.model.RampFloor)*math.Min(1, math.Max(frac, 0)/math.Max(bs.model.RampFraction, 1e-9))
	return bs.peakRate * ramp * refDiurnalFactor(t) * bs.surgeFactor(t)
}

// rateProbes returns the exactness probe set over the domain rateAt
// sees, [0, span): every hour (hence every day) boundary at 0, ±1 ulp
// and ±1 µs, and a million seeded uniform instants.
func rateProbes(span float64) []float64 {
	var ts []float64
	for b := 0.0; b < span; b += 3600 {
		for _, t := range []float64{b, math.Nextafter(b, math.Inf(-1)), math.Nextafter(b, math.Inf(1)), b - 1e-6, b + 1e-6} {
			if t >= 0 {
				ts = append(ts, t)
			}
		}
	}
	r := rand.New(rand.NewSource(20240613))
	for i := 0; i < 1_000_000; i++ {
		ts = append(ts, r.Float64()*span)
	}
	return ts
}

// sameFloat reports bit equality.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

func TestDiurnalFactorMatchesModReference(t *testing.T) {
	span := backend.StudyEnd.Sub(backend.StudyStart).Seconds()
	for _, ts := range rateProbes(span) {
		if got, want := diurnalFactor(ts), refDiurnalFactor(ts); !sameFloat(got, want) {
			t.Fatalf("diurnalFactor(%v) = %v, reference %v", ts, got, want)
		}
	}
}

func TestRateAtMatchesReference(t *testing.T) {
	span := backend.StudyEnd.Sub(backend.StudyStart).Seconds()
	m, err := backend.FindMachine(backend.Fleet(), "ibmq_toronto")
	if err != nil {
		t.Fatal(err)
	}
	rampStart := m.Online.Sub(backend.StudyStart).Seconds()
	zeroRamp := DefaultBackground()
	zeroRamp.RampFraction = 0
	cases := []struct {
		name               string
		model              *BackgroundModel
		rampStart, rampEnd float64
	}{
		// The machine comes online mid-window, so the probes cover the
		// pre-online floor, the ramp and the plateau.
		{"default", DefaultBackground(), rampStart, span},
		// A degenerate ramp exercises both clamped divisors.
		{"degenerate-ramp", zeroRamp, rampStart, rampStart},
	}
	for _, c := range cases {
		probes := rateProbes(span)
		sort.Float64s(probes) // surgeFactor's cursor expects nondecreasing queries
		bs := newBackgroundStream(c.model, m, rand.New(rand.NewSource(1)), 0, span, c.rampStart, c.rampEnd)
		bs.surgeIdx = 0
		for _, ts := range probes {
			want := refRateAt(bs, ts)
			if got := bs.rateAt(ts); !sameFloat(got, want) {
				t.Fatalf("%s: rateAt(%v) = %v, reference %v", c.name, ts, got, want)
			}
		}
	}
}

// TestAdmitBackgroundArrivalAllocs pins the per-arrival cost of the
// fleet loop: with user names interned, one account per user and
// served records recycled, admitting a background arrival (and serving
// it off the queue) allocates nothing in steady state.
func TestAdmitBackgroundArrivalAllocs(t *testing.T) {
	m, err := backend.FindMachine(backend.Fleet(), "ibmq_qasm_simulator")
	if err != nil {
		t.Fatal(err)
	}
	sess, err := Open(Config{Seed: 3, Machines: []*backend.Machine{m}, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	ms := sess.sims[0]
	admitOne := func() {
		at, ok := ms.bg.peek()
		if !ok {
			t.Fatal("background stream exhausted")
		}
		ms.admitArrivals(at, false)
		ms.release(ms.queue.pop())
	}
	// Warm up until every background user has an account and the free
	// list holds a record.
	for i := 0; i < 20000; i++ {
		admitOne()
	}
	if got := testing.AllocsPerRun(2000, admitOne); got > 0 {
		t.Fatalf("admitting a background arrival allocates %v objects, want 0", got)
	}
}

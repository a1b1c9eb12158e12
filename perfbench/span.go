package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call into a layer's public API: its name, its
// interval relative to the tracer's origin, the enclosing span (-1 for
// none) and the unit of work it belongs to (a dispatcher seq, an HTTP
// request number, or -1).
type Span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Unit   int64  `json:"unit"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Dur is the span's length.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// Tracer keeps spans in memory until the run ends. A nil or disabled
// tracer records nothing, so the untraced run pays only a branch per
// wrapped call.
type Tracer struct {
	on    atomic.Bool
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

func newTracer(on bool) *Tracer {
	t := &Tracer{t0: time.Now()}
	t.on.Store(on)
	return t
}

// On reports whether spans are recorded.
func (t *Tracer) On() bool { return t != nil && t.on.Load() }

// Pause stops recording (for the untraced run of a traced run, and
// for output checks) and returns a function that resumes it.
func (t *Tracer) Pause() (resume func()) {
	was := t.On()
	t.on.Store(false)
	return func() { t.on.Store(was) }
}

// Start opens a span and returns its id (-1 when tracing is off).
func (t *Tracer) Start(name string, parent int32, unit int64) int32 {
	if !t.On() {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Unit: unit, Start: now, End: now})
	t.mu.Unlock()
	return id
}

// End closes the span opened as id.
func (t *Tracer) End(id int32) {
	if id < 0 || !t.On() {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// Add records a span whose interval was measured elsewhere.
func (t *Tracer) Add(name string, parent int32, unit int64, start, end time.Time) {
	if !t.On() {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, Span{
		ID: int32(len(t.spans)), Parent: parent, Name: name, Unit: unit,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
	})
	t.mu.Unlock()
}

// Do runs fn inside a span and returns its wall time (measured whether
// or not tracing is on).
func (t *Tracer) Do(name string, parent int32, fn func()) time.Duration {
	id := t.Start(name, parent, -1)
	start := time.Now()
	fn()
	d := time.Since(start)
	t.End(id)
	return d
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Durations returns the lengths, in ms, of every recorded span named
// name.
func (t *Tracer) Durations(name string) []float64 { return durations(t.Spans(), name) }

// durations returns the lengths, in ms, of the spans named name.
func durations(spans []Span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.Dur())/1e6)
		}
	}
	return out
}

// total sums the lengths, in seconds, of the spans named name.
func total(spans []Span, name string) float64 {
	sum := 0.0
	for _, ms := range durations(spans, name) {
		sum += ms / 1e3
	}
	return sum
}

// WriteJSONL writes one span per line.
func (t *Tracer) writeJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// reqHeader carries the client's request number to the server-side
// span, so both sides of one request share a unit id.
const reqHeader = "X-Perfbench-Req"

// tracedHandler wraps the dispatcher's HTTP handler: one "srv <path>"
// span per request, keyed by the client's request number.
func tracedHandler(t *Tracer, h http.Handler) http.Handler {
	if !t.On() {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		unit, err := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
		if err != nil {
			unit = -1
		}
		id := t.Start("srv "+r.URL.Path, -1, unit)
		h.ServeHTTP(w, r)
		t.End(id)
	})
}

// tracedTransport wraps a client's transport: one "cli <path>" span
// per request, from the request leaving to the response body being
// closed. For workers it also records the exec gap: the time between
// a pull response and the next result post, which is the worker's
// BatchRun over the pulled units.
type tracedTransport struct {
	base http.RoundTripper
	t    *Tracer
	seq  *atomic.Int64
	// worker enables the exec-gap span.
	worker bool

	mu       sync.Mutex
	pullDone time.Time // zero when no pull awaits its first result
}

func (tt *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	n := tt.seq.Add(1)
	path := req.URL.Path
	if tt.worker {
		tt.mu.Lock()
		switch path {
		case "/v1/result":
			if !tt.pullDone.IsZero() {
				tt.t.Add("worker.exec", -1, -1, tt.pullDone, time.Now())
				tt.pullDone = time.Time{}
			}
		case "/v1/pull":
			tt.pullDone = time.Time{}
		}
		tt.mu.Unlock()
	}
	r2 := req.Clone(req.Context())
	r2.Header.Set(reqHeader, strconv.FormatInt(n, 10))
	id := tt.t.Start("cli "+path, -1, n)
	res, err := tt.base.RoundTrip(r2)
	if err != nil {
		tt.t.End(id)
		return nil, err
	}
	res.Body = &spanBody{ReadCloser: res.Body, end: func() {
		tt.t.End(id)
		if tt.worker && path == "/v1/pull" {
			tt.mu.Lock()
			tt.pullDone = time.Now()
			tt.mu.Unlock()
		}
	}}
	return res, nil
}

// spanBody ends its span when the response body is closed.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.end)
	return err
}

// newClient returns an HTTP client with its own connection pool of at
// most conns connections, traced when t is on.
func newClient(t *Tracer, conns int, seq *atomic.Int64, worker bool) *http.Client {
	tr := &http.Transport{
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		IdleConnTimeout:     90 * time.Second,
	}
	if !t.On() {
		return &http.Client{Transport: tr}
	}
	return &http.Client{Transport: &tracedTransport{base: tr, t: t, seq: seq, worker: worker}}
}

// quantile is the q-quantile of xs by linear interpolation (0 for an
// empty slice). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

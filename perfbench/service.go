package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"qcloud/internal/backend"
	"qcloud/internal/cloud"
	"qcloud/internal/dispatch"
	"qcloud/internal/dispatch/wire"
	"qcloud/internal/journal"
	"qcloud/internal/qsim"
	"qcloud/internal/trace"
	"qcloud/internal/workload"
)

// serviceWorkers is the worker daemon count; each runs BatchRun with
// one simulation goroutine.
const serviceWorkers = 2

// sessionSec is the nominal length of one measured session.
const sessionSec = 12

// genConns bounds the load generator's connections (and requests in
// flight).
const genConns = 2

// service is one dispatcher with its workers and the generator's
// client, all in this process over loopback TCP.
type service struct {
	d      *dispatch.Dispatcher
	srv    *http.Server
	url    string
	gen    *dispatch.Client
	served chan error // Serve's return, once the server stops
	cancel context.CancelFunc
	wg     sync.WaitGroup
	conns  []*http.Client
	werr   chan error
}

// serve starts the dispatcher's HTTP server on a loopback port.
func (s *service) serve(r *run) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.url = "http://" + ln.Addr().String()
	s.srv = &http.Server{Handler: tracedHandler(r.tr, s.d.Handler())}
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(ln) }()
	return nil
}

// openService opens a dispatcher on dir, serves it on a loopback port,
// starts the workers and waits until both are registered and both
// generator connections are open.
func openService(r *run, dcfg dispatch.Config, seq *atomic.Int64) (*service, error) {
	d, err := dispatch.New(dcfg)
	if err != nil {
		return nil, err
	}
	s := &service{d: d, werr: make(chan error, serviceWorkers)}
	if err := s.serve(r); err != nil {
		d.Close()
		return nil, err
	}

	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	for i := 0; i < serviceWorkers; i++ {
		hc := newClient(r.tr, 2, seq, true)
		s.conns = append(s.conns, hc)
		w, err := dispatch.NewWorker(dispatch.WorkerConfig{
			Server: s.url, Name: fmt.Sprintf("w%d", i), SimWorkers: 1, Client: hc,
		})
		if err != nil {
			s.close()
			return nil, err
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			if err := w.Run(ctx); err != nil {
				s.werr <- err
			}
		}()
	}
	hc := newClient(r.tr, genConns, seq, false)
	s.conns = append(s.conns, hc)
	s.gen = &dispatch.Client{Server: s.url, HTTP: hc}

	deadline := time.Now().Add(30 * time.Second)
	for {
		// Two concurrent status calls open both generator connections.
		var wg sync.WaitGroup
		sts := make([]wire.StatusResponse, genConns)
		errs := make([]error, genConns)
		for i := range sts {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sts[i], errs[i] = s.gen.Status()
			}()
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			s.close()
			return nil, err
		}
		if len(sts[0].Workers) == serviceWorkers {
			return s, nil
		}
		if time.Now().After(deadline) {
			s.close()
			return nil, fmt.Errorf("service: workers did not register")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// close stops the workers (they deregister), the server and the
// dispatcher, sealing its journals.
func (s *service) close() error {
	s.cancel()
	s.wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	for _, hc := range s.conns {
		hc.CloseIdleConnections()
	}
	select {
	case werr := <-s.werr:
		err = errors.Join(err, werr)
	default:
	}
	return errors.Join(err, s.d.Close())
}

// session is one measured pass of service-30d.
type session struct {
	lat, late        []float64 // open-loop ack latency and send lateness, ms
	burstRate        float64
	lastTerminal     float64 // first due submission to the last terminal unit
	busy             float64 // burst start to the last terminal unit
	fetch            float64
	recover          []float64
	cpu              float64
	rss              float64     // peak resident set during the session, MB
	order            []wire.Spec // plans in the dispatcher's seq order
	traceCSV, counts []byte
	events           []wire.Event
	lost             int64 // events dropped from the ring before they were read
	submitErrs       int
	firstErr         error
	dir              string
	spans            []Span // recorded from the session's first set-up to its last reopening
}

// runService measures service-30d: the exec plans of a 30-day study
// window submitted open-loop at a fixed rate, then as a closed-loop
// burst with two requests in flight; then seal, drain, fetch both CSV
// planes, close, and reopen on the same WAL.
func runService(r *run) error {
	start := backend.StudyStart
	end := start.Add(time.Duration(r.p.ServiceDays * 24 * float64(time.Hour)))
	dcfg := dispatch.Config{Seed: r.seed, Start: start, End: end, SimWorkers: 1}
	plansOf := func() []wire.Spec {
		specs := workload.Generate(workload.Config{Seed: r.seed, TotalJobs: r.p.ServiceJobs, Start: start, End: end})
		plans := make([]wire.Spec, len(specs))
		for i, js := range specs {
			plans[i] = wire.Plan(js, wire.ExecCaps{}, r.seed, i)
		}
		return plans
	}
	root, err := os.MkdirTemp(r.dir, "service-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)

	var sessions []*session
	var setups []float64
	var seq atomic.Int64
	n := r.passes(sessionSec, 1)
	for i := 0; i < n; i++ {
		mark := len(r.tr.Spans())
		// Set up several times; the last set-up serves the session.
		var svc *service
		var plans []wire.Spec
		var cfg dispatch.Config
		for k := 0; k < r.setupsPerPass(n); k++ {
			if svc != nil {
				if err := svc.close(); err != nil {
					return err
				}
			}
			cfg = dcfg
			cfg.Dir = filepath.Join(root, fmt.Sprintf("s%d-%d", i, k))
			runtime.GC()
			t0 := time.Now()
			r.tr.Do("workload.generate", -1, func() { plans = plansOf() })
			var err error
			if svc, err = openService(r, cfg, &seq); err != nil {
				return err
			}
			setups = append(setups, time.Since(t0).Seconds())
		}
		ses, err := runSession(r, svc, plans, cfg)
		if err != nil {
			return err
		}
		ses.spans = r.tr.Spans()[mark:]
		sessions = append(sessions, ses)
	}
	// wall_s leaves out the open-loop phase, whose length is set by its
	// fixed rate: it is the burst through the last terminal unit, plus
	// fetching both planes, plus one reopening.
	var lats, walls, lastTerms, cpus, bursts, fetches, recovers, rsss []float64
	for _, s := range sessions {
		lats = append(lats, s.lat...)
		walls = append(walls, s.busy+s.fetch+median(s.recover))
		lastTerms, cpus, rsss = append(lastTerms, s.lastTerminal), append(cpus, s.cpu), append(rsss, s.rss)
		bursts, fetches = append(bursts, s.burstRate), append(fetches, s.fetch)
		recovers = append(recovers, median(s.recover))
	}
	r.e2e["setup_s"] = median(setups)
	r.e2e["wall_s"] = median(walls)
	r.e2e["cpu_s"] = median(cpus)
	r.note("setup_s", "s", median(setups))
	r.note("peak_rss_mb", "MB", median(rsss))
	r.note("submit_p50_ms", "ms", median(lats))
	r.note("submit_p99_ms", "ms", quantile(lats, 0.99))
	r.note("submit_samples", "count", float64(len(lats)))
	r.note("burst_submits_per_s", "1/s", median(bursts))
	r.note("last_terminal_s", "s", median(lastTerms))
	r.note("fetch_s", "s", median(fetches))
	r.note("recover_s", "s", median(recovers))
	r.note("sessions", "count", float64(len(sessions)))

	for i, s := range sessions {
		if err := checkSession(r, i, s, dcfg); err != nil {
			return err
		}
	}
	if !r.tr.On() {
		return nil
	}
	// Layer values are medians over the sessions, like the end-to-end
	// ones.
	per := map[string][]float64{}
	for _, s := range sessions {
		l, err := serviceLayers(r, s, dcfg)
		if err != nil {
			return err
		}
		for k, v := range l {
			per[k] = append(per[k], v)
		}
	}
	for k, vs := range per {
		r.layer[k] = median(vs)
	}
	return nil
}

// runSession drives one measured pass on a set-up service, closes it
// and reopens it on its state directory cfg.Dir.
func runSession(r *run, svc *service, plans []wire.Spec, cfg dispatch.Config) (*session, error) {
	p := r.p
	n := len(plans)
	nOpen := min(p.OpenLoop, n)
	ses := &session{
		lat: make([]float64, nOpen), late: make([]float64, nOpen),
		order: make([]wire.Spec, n), dir: cfg.Dir,
	}
	var errMu sync.Mutex
	send := func(i int) {
		resp, err := svc.gen.Submit(fmt.Sprintf("gen/%d", i), plans[i])
		if err == nil && (resp.Seq < 0 || resp.Seq >= int64(n) || resp.Dup) {
			err = fmt.Errorf("submit %d: unexpected response %+v", i, resp)
		}
		errMu.Lock()
		defer errMu.Unlock()
		if err != nil {
			if ses.submitErrs++; ses.firstErr == nil {
				ses.firstErr = err
			}
			return
		}
		ses.order[resp.Seq] = plans[i]
	}
	// pump runs genConns senders over [lo, hi); each takes the next
	// index, waits for its due time when paced, and sends.
	pump := func(lo, hi int, t0 time.Time, paced bool) {
		var next atomic.Int64
		next.Store(int64(lo))
		var wg sync.WaitGroup
		for c := 0; c < genConns; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1) - 1)
					if i >= hi {
						return
					}
					if !paced {
						send(i)
						continue
					}
					due := t0.Add(time.Duration(float64(i) / p.OpenRate * float64(time.Second)))
					if d := time.Until(due); d > 0 {
						time.Sleep(d)
					}
					sent := time.Now()
					send(i)
					ses.late[i] = float64(sent.Sub(due)) / 1e6
					ses.lat[i] = float64(time.Since(due)) / 1e6
				}
			}()
		}
		wg.Wait()
	}

	resetPeakRSS()
	cpu0, t0 := cpuTime(), time.Now()
	pump(0, nOpen, t0, true)
	tb := time.Now()
	pump(nOpen, n, tb, false)
	ses.burstRate = float64(n-nOpen) / time.Since(tb).Seconds()
	if err := svc.gen.Seal(); err != nil {
		return nil, err
	}
	for {
		st, err := svc.gen.Status()
		if err != nil {
			return nil, err
		}
		if st.Sealed && st.Terminal() >= st.Jobs {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	drained, cpu1 := time.Now(), cpuTime()

	// The event stream is read outside the timed segments.
	var cursor int64
	for {
		resp, err := svc.gen.Events(cursor)
		if err != nil {
			return nil, err
		}
		if resp.Truncated && cursor == 0 {
			ses.lost = resp.Next - int64(len(resp.Events))
		}
		ses.events = append(ses.events, resp.Events...)
		if resp.Next == cursor || len(resp.Events) == 0 {
			break
		}
		cursor = resp.Next
	}
	// Last terminal unit: the latest terminal event, or the drain poll
	// when the ring lost events.
	last := drained
	if ses.lost == 0 {
		last = time.Time{}
		for _, ev := range ses.events {
			if terminalEvent(ev.Kind) && ev.At.After(last) {
				last = ev.At
			}
		}
	}
	ses.lastTerminal = last.Sub(t0).Seconds()
	ses.busy = last.Sub(tb).Seconds()

	cpu2 := cpuTime()
	var err error
	ses.fetch = r.tr.Do("fetch", -1, func() {
		if ses.traceCSV, err = svc.gen.TraceCSV(); err == nil {
			ses.counts, err = svc.gen.CountsCSV(false)
		}
	}).Seconds()
	if err != nil {
		return nil, err
	}
	if err := svc.close(); err != nil {
		return nil, err
	}

	// Reopen on the same WAL until the dispatcher serves, several times.
	var seq atomic.Int64
	for k := 0; k < p.RecoverRepeat; k++ {
		var re *service
		d := r.tr.Do("recover", -1, func() { re, err = reopen(r, cfg, &seq) })
		if err != nil {
			return nil, err
		}
		ses.recover = append(ses.recover, d.Seconds())
		st := re.d.Stats()
		r.check(st.Recovered && st.Jobs == n && st.Terminal() == n && st.Sealed,
			"service: reopened dispatcher holds %d jobs (%d terminal, sealed=%v), want %d", st.Jobs, st.Terminal(), st.Sealed, n)
		if err := re.close(); err != nil {
			return nil, err
		}
	}
	ses.rss = peakRSSMB()
	// CPU of everything measured: submission through drain, then
	// fetch, close and reopen; not the event read between them.
	ses.cpu = (cpu1 - cpu0 + cpuTime() - cpu2).Seconds()
	r.ops(n, ses.submitErrs)
	return ses, nil
}

// reopen is the recovery path: open the dispatcher on an existing
// state directory and serve until the first status call answers.
func reopen(r *run, cfg dispatch.Config, seq *atomic.Int64) (*service, error) {
	d, err := dispatch.New(cfg)
	if err != nil {
		return nil, err
	}
	s := &service{d: d, cancel: func() {}}
	if err := s.serve(r); err != nil {
		d.Close()
		return nil, err
	}
	hc := newClient(r.tr, 1, seq, false)
	s.conns = []*http.Client{hc}
	s.gen = &dispatch.Client{Server: s.url, HTTP: hc}
	if _, err := s.gen.Status(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func terminalEvent(k cloud.EventKind) bool {
	return k == cloud.EventDone || k == cloud.EventError || k == cloud.EventCancel
}

// checkSession compares the service's CSV planes with the in-process
// references for the same plans in the same seq order, and checks the
// event stream's conservation laws.
func checkSession(r *run, i int, s *session, dcfg dispatch.Config) error {
	if s.submitErrs > 0 {
		r.check(false, "service: session %d: %d submissions failed, first: %v", i, s.submitErrs, s.firstErr)
		return nil
	}
	specs := make([]*cloud.JobSpec, len(s.order))
	for k := range s.order {
		specs[k] = s.order[k].JobSpec()
	}
	ref, err := cloud.Simulate(cloud.Config{Seed: dcfg.Seed, Start: dcfg.Start, End: dcfg.End, Workers: serviceWorkers}, specs)
	if err != nil {
		return err
	}
	var refTrace bytes.Buffer
	if err := trace.WriteCSV(&refTrace, ref.Jobs); err != nil {
		return err
	}
	r.check(bytes.Equal(s.traceCSV, refTrace.Bytes()), "service: session %d trace CSV differs from cloud.Simulate", i)
	rs, err := wire.RunLocal(s.order, qsim.Parallelism{Workers: serviceWorkers})
	if err != nil {
		return err
	}
	var refCounts bytes.Buffer
	if err := rs.WriteCSV(&refCounts); err != nil {
		return err
	}
	r.check(bytes.Equal(s.counts, refCounts.Bytes()), "service: session %d counts CSV differs from wire.RunLocal", i)

	r.check(s.lost == 0, "service: session %d lost %d events from the ring", i, s.lost)
	if s.lost == 0 {
		c := map[cloud.EventKind]int{}
		for _, ev := range s.events {
			c[ev.Kind]++
		}
		en, st, ca := c[cloud.EventEnqueue], c[cloud.EventStart], c[cloud.EventCancel]
		do, er, re, rq := c[cloud.EventDone], c[cloud.EventError], c[cloud.EventRetry], c[cloud.EventRequeue]
		r.check(en == len(s.order), "service: session %d: %d enqueue events for %d submissions", i, en, len(s.order))
		r.check(en+rq == st+ca, "service: session %d: enqueue %d + requeue %d != start %d + cancel %d", i, en, rq, st, ca)
		r.check(st == do+er+re, "service: session %d: start %d != done %d + error %d + retry %d", i, st, do, er, re)
	}
	return nil
}

// serviceLayers returns the per-layer metrics of a traced session.
func serviceLayers(r *run, s *session, dcfg dispatch.Config) (map[string]float64, error) {
	t := r.tr
	l := map[string]float64{}
	l["workload.generate_s"] = median(durations(s.spans, "workload.generate")) / 1e3

	// HTTP, server side and client side of the same requests.
	srvSubmit := durations(s.spans, "srv /v1/submit")
	l["http.submit.n"] = float64(len(srvSubmit))
	l["http.submit.p50_ms"] = quantile(srvSubmit, 0.5)
	l["http.submit.p99_ms"] = quantile(srvSubmit, 0.99)
	srvByUnit := map[int64]float64{}
	for _, sp := range s.spans {
		if sp.Name == "srv /v1/submit" {
			srvByUnit[sp.Unit] = float64(sp.Dur()) / 1e6
		}
	}
	var overhead []float64
	for _, sp := range s.spans {
		if srv, ok := srvByUnit[sp.Unit]; ok && sp.Name == "cli /v1/submit" {
			overhead = append(overhead, float64(sp.Dur())/1e6-srv)
		}
	}
	l["http.client_overhead_ms"] = quantile(overhead, 0.5)
	pulls := durations(s.spans, "srv /v1/pull")
	results := durations(s.spans, "srv /v1/result")
	l["http.pull.n"] = float64(len(pulls))
	l["http.pull.p50_ms"] = quantile(pulls, 0.5)
	l["http.result.p50_ms"] = quantile(results, 0.5)
	l["http.heartbeat.n"] = float64(len(durations(s.spans, "srv /v1/heartbeat")))
	l["http.trace.s"] = total(s.spans, "srv /v1/result/trace")
	l["http.counts.s"] = total(s.spans, "srv /v1/result/counts")

	// Queue side, from the event stream: each unit's seq keys its
	// enqueue, start and done events.
	enq, startAt := map[int64]time.Time{}, map[int64]time.Time{}
	var wait, lease []float64
	c := map[cloud.EventKind]int{}
	for _, ev := range s.events {
		c[ev.Kind]++
		switch ev.Kind {
		case cloud.EventEnqueue:
			enq[ev.Seq] = ev.At
		case cloud.EventStart:
			if at, ok := enq[ev.Seq]; ok {
				wait = append(wait, float64(ev.At.Sub(at))/1e6)
				t.Add("unit.queued", -1, ev.Seq, at, ev.At)
			}
			startAt[ev.Seq] = ev.At
		case cloud.EventDone:
			if at, ok := startAt[ev.Seq]; ok {
				lease = append(lease, float64(ev.At.Sub(at))/1e6)
				t.Add("unit.leased", -1, ev.Seq, at, ev.At)
			}
		}
	}
	l["dispatch.queue_wait_p50_ms"] = quantile(wait, 0.5)
	l["dispatch.queue_wait_p99_ms"] = quantile(wait, 0.99)
	l["dispatch.lease_p50_ms"] = quantile(lease, 0.5)
	execs := durations(s.spans, "worker.exec")
	if len(pulls) > 0 {
		l["dispatch.pull_empty_share"] = 1 - float64(len(execs))/float64(len(pulls))
	}
	if len(execs) > 0 {
		l["dispatch.units_per_pull"] = float64(c[cloud.EventStart]) / float64(len(execs))
	}
	dupResults := len(results) - c[cloud.EventDone] - c[cloud.EventError]
	l["dispatch.retries"] = float64(c[cloud.EventRetry] + c[cloud.EventRequeue] + max(dupResults, 0))
	l["dispatch.events_truncated"] = float64(s.lost)
	l["worker.exec_s"] = total(s.spans, "worker.exec")
	l["loadgen.late_p99_ms"] = quantile(s.late, 0.99)

	// Journal: the closed state directory's two streams.
	subDir, resDir := filepath.Join(s.dir, "submits"), filepath.Join(s.dir, "results")
	subScan, err := journal.Scan(subDir)
	if err != nil {
		return nil, err
	}
	resScan, err := journal.Scan(resDir)
	if err != nil {
		return nil, err
	}
	l["journal.records"] = float64(subScan.Records + resScan.Records)
	if subScan.Records > 0 {
		l["journal.submit_bytes_per_rec"] = float64(subScan.Bytes) / float64(subScan.Records)
	}
	if resScan.Records > 0 {
		l["journal.result_bytes_per_rec"] = float64(resScan.Bytes) / float64(resScan.Records)
	}
	var payload int
	replay := t.Do("journal.replay", -1, func() {
		for _, dir := range []string{subDir, resDir} {
			if _, err = journal.ForEach(dir, func(_ int64, p []byte) error { payload += len(p); return nil }); err != nil {
				return
			}
		}
	})
	if err != nil {
		return nil, err
	}
	l["journal.replay_s"] = replay.Seconds()

	// Wire codec over the session's submit records.
	recs := make([][]byte, len(s.order))
	enc := t.Do("wire.encode", -1, func() {
		for k := range s.order {
			if recs[k], err = wire.EncodeRecord(wire.RecSubmit, wire.SubmitRec{Seq: int64(k), Key: fmt.Sprintf("gen/%d", k), Spec: s.order[k]}); err != nil {
				return
			}
		}
	})
	if err != nil {
		return nil, err
	}
	dec := t.Do("wire.decode", -1, func() {
		for _, rec := range recs {
			if _, err = wire.DecodeRecord(rec); err != nil {
				return
			}
		}
	})
	if err != nil {
		return nil, err
	}
	reqBytes := 0
	for k := range s.order {
		raw, err := json.Marshal(wire.SubmitRequest{V: wire.Version, Key: fmt.Sprintf("gen/%d", k), Spec: s.order[k]})
		if err != nil {
			return nil, err
		}
		reqBytes += len(raw)
	}
	nrec := float64(max(len(s.order), 1))
	l["wire.encode_us"] = float64(enc.Microseconds()) / nrec
	l["wire.decode_us"] = float64(dec.Microseconds()) / nrec
	l["wire.submit_req_bytes"] = float64(reqBytes) / nrec

	// Trace plane: the reference cloud.Simulate of the same plans.
	specs := make([]*cloud.JobSpec, len(s.order))
	for k := range s.order {
		specs[k] = s.order[k].JobSpec()
	}
	var tr *trace.Trace
	var sim time.Duration
	mb, allocs := allocDelta(func() {
		sim = t.Do("cloud.simulate", -1, func() {
			tr, err = cloud.Simulate(cloud.Config{Seed: dcfg.Seed, Start: dcfg.Start, End: dcfg.End, Workers: 1}, specs)
		})
	})
	if err != nil {
		return nil, err
	}
	l["cloud.simulate_s"] = sim.Seconds()
	l["cloud.alloc_mb"] = mb
	l["cloud.allocs"] = allocs
	var buf bytes.Buffer
	l["trace.write_csv_s"] = t.Do("trace.write_csv", -1, func() { err = trace.WriteCSV(&buf, tr.Jobs) }).Seconds()
	if err != nil {
		return nil, err
	}
	l["trace.csv_bytes"] = float64(len(s.traceCSV))

	// Counts plane: the units' circuits through one BatchRun.
	var jobs []qsim.BatchJob
	for k := range s.order {
		js, err := wire.BuildBatch(&s.order[k])
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, js...)
	}
	var res []qsim.BatchResult
	l["qsim.batchrun_s"] = t.Do("qsim.batchrun", -1, func() {
		res = qsim.BatchRun(jobs, qsim.Parallelism{Workers: serviceWorkers})
	}).Seconds()
	failed := 0
	for _, br := range res {
		if br.Err != nil {
			failed++
		}
	}
	r.ops(len(res), failed)
	sweeps, bytesComputed, err := kernelWork(jobs)
	if err != nil {
		return nil, err
	}
	l["qsim.sweeps"] = sweeps
	l["qsim.bytes_computed"] = bytesComputed
	return l, nil
}

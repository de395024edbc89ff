package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"
)

// Per-phase hard limits. A phase that overruns fails the run with the
// server's stderr tail; nothing partial is printed.
const (
	setupTimeout  = 60 * time.Second
	phaseTimeout  = 90 * time.Second
	verifyTimeout = 60 * time.Second
)

// metric is one named number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// session is one workload's run against real wfsimd processes.
type session struct {
	env    *env
	wl     *workload
	cfg    serverConfig // wl.cfg with the sizes-dependent fields filled in
	sz     sizes
	in     *inputs
	plan   *plan
	client *http.Client
	corpus string // base corpus file
	data   string // the live server's data directory ("" when RAM-only)
	srv    *server
	chk    *checker
	probe  *speedProbe
	probes []float64 // ms, every speed probe of the run in order

	healthy  time.Duration // the last set-up's first exec → /healthz OK
	recovery time.Duration // the last restart over a crashed data directory → /healthz OK
}

func newSession(e *env, wl *workload, seed int64, sz sizes) (*session, error) {
	in, err := generate(seed, sz)
	if err != nil {
		return nil, err
	}
	s := &session{env: e, wl: wl, sz: sz, in: in, client: newClient(), probe: newSpeedProbe()}
	n := wl.counts(sz)
	s.cfg = wl.cfg
	if s.cfg.compactPerSlice {
		s.cfg.compactRecords = max(1, n.closed/closedSlices)
	}
	s.plan = wl.plan(in, sz, n)
	s.corpus = filepath.Join(e.scratch, wl.name+"-base.json")
	if err := in.writeCorpus(s.corpus); err != nil {
		return nil, err
	}
	return s, nil
}

// close kills the server on every exit path.
func (s *session) close() {
	s.srv.kill()
	s.client.CloseIdleConnections()
}

// sample times the speed probe at one measuring point. The server is idle
// at every point this is called from.
func (s *session) sample() {
	for i := 0; i < s.sz.probeBurst; i++ {
		s.probes = append(s.probes, s.probe.once())
	}
}

// boot starts wfsimd over s.data (fresh or holding state).
func (s *session) boot(ctx context.Context, fresh bool) error {
	srv, err := s.env.startServer(ctx, s.client, s.cfg.args(s.corpus, s.data, fresh))
	if err != nil {
		return err
	}
	s.srv = srv
	return nil
}

// crashRestart SIGKILLs the server and boots a new one over the same data.
func (s *session) crashRestart(ctx context.Context) error {
	s.srv.kill()
	if err := s.boot(ctx, false); err != nil {
		return err
	}
	s.recovery = s.srv.healthy
	return nil
}

// setup is the timed set-up: exec wfsimd → /healthz OK → warm-up schedule
// finished. On ingest_durable the base corpus is first ingested into an
// empty data directory, the server is SIGKILLed and restarted over it, so
// that recovery (snapshot load + log replay) is inside the measured time.
// It returns the set-up time and the replies of every batch it sent.
func (s *session) setup(ctx context.Context) (time.Duration, []*reply, error) {
	ctx, cancel := context.WithTimeout(ctx, setupTimeout)
	defer cancel()
	if s.data != "" {
		os.RemoveAll(s.data) // the previous set-up's directory
		s.data = ""
	}
	if s.cfg.durable {
		dir, err := s.env.dir(s.wl.name + "-data-")
		if err != nil {
			return 0, nil, err
		}
		s.data = dir
	}
	var batches []*reply
	send := func(steps []step) error {
		res, _, err := runClosed(ctx, s.client, s.srv.base, steps)
		if err != nil {
			return s.srv.fail(err)
		}
		for _, sr := range res {
			for _, rep := range sr.replies {
				if !rep.ok() {
					return s.srv.fail(fmt.Errorf("set-up request failed: status %d, err %v, body %.200s", rep.status, rep.err, rep.body))
				}
				if rep.req.kind == kindBatch {
					batches = append(batches, rep)
				}
			}
		}
		return nil
	}
	start := time.Now()
	if err := s.boot(ctx, true); err != nil {
		return 0, nil, err
	}
	s.healthy = s.srv.healthy
	if len(s.plan.ingest) > 0 {
		if err := send(s.plan.ingest); err != nil {
			return 0, nil, err
		}
		if err := s.crashRestart(ctx); err != nil {
			return 0, nil, err
		}
	}
	if err := send(s.plan.warmup); err != nil {
		return 0, nil, err
	}
	return time.Since(start), batches, nil
}

// measured is what the closed and open phases produced.
type measured struct {
	setups    []float64 // seconds, one per timed set-up
	closed    []stepResult
	slices    []slice
	open      [][]*reply
	rssPeakMB float64
	slowdown  float64 // this run's probe time ÷ refProbeMS
}

// run executes set-up (several times; the last server stays), the closed
// loop, the open loop and verification.
func (s *session) run(ctx context.Context) (*measured, error) {
	m := &measured{}
	var setupBatches []*reply
	for i := 0; i < s.sz.setupRepeats; i++ {
		s.srv.kill()
		s.sample()
		d, batches, err := s.setup(ctx)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		m.setups = append(m.setups, d.Seconds())
		setupBatches = batches
	}
	s.chk = newChecker(s.in, len(s.plan.ingest) == 0, s.sz.deepChecks)
	for _, rep := range setupBatches {
		s.chk.commit(rep)
	}

	cctx, cancel := context.WithTimeout(ctx, phaseTimeout)
	err := s.closedLoop(cctx, m)
	cancel()
	if err != nil {
		return nil, s.srv.fail(err)
	}
	m.slowdown = calm(s.probes) / refProbeMS

	octx, cancel := context.WithTimeout(ctx, phaseTimeout)
	m.open, err = runOpen(octx, s.client, s.srv.base, s.plan.open, s.wl.openRate)
	cancel()
	if err != nil {
		return nil, s.srv.fail(err)
	}
	// A server that died is a failed run, not a run with failed requests.
	select {
	case <-s.srv.exited:
		return nil, s.srv.fail(fmt.Errorf("wfsimd exited during the measured phases: %v", s.srv.waitErr))
	default:
	}
	if m.rssPeakMB, err = s.srv.rssPeakMB(); err != nil {
		return nil, s.srv.fail(err)
	}

	vctx, cancel := context.WithTimeout(ctx, verifyTimeout)
	defer cancel()
	if err := s.verify(vctx, m); err != nil {
		return nil, s.srv.fail(fmt.Errorf("verify: %w", err))
	}
	return m, nil
}

// closedSlices is how many equal slices of the closed schedule are timed on
// their own. Interference on the shared box only ever adds time, so a run
// reports the lower quartile of its slices — the least disturbed ones —
// instead of a figure a burst anywhere in the run can move.
const closedSlices = 8

// tailSamples is the fewest samples a tail percentile is taken over: with
// 200, ten lie beyond the 95th.
const tailSamples = 200

// calm is the nearest-rank lower quartile: the 2nd smallest of 8.
func calm(xs []float64) float64 {
	v, _ := percentile(xs, 0.25)
	return v
}

// slicedPercentile cuts the samples, in the order they were taken, into as
// many equal slices (at most closedSlices) as still hold tailSamples each,
// and returns the calm one of the slices' q-quantiles and how many samples
// lie beyond the quantile in one slice.
func slicedPercentile(xs []float64, q float64) (v float64, beyond int) {
	k := min(closedSlices, max(1, len(xs)/tailSamples))
	var qs []float64
	for j := 0; j < k; j++ {
		v, b := percentile(xs[j*len(xs)/k:(j+1)*len(xs)/k], q)
		qs = append(qs, v)
		if j == 0 || b < beyond {
			beyond = b
		}
	}
	return calm(qs), beyond
}

// slice is one timed slice of the closed loop: steps [lo, hi) of the
// schedule.
type slice struct {
	lo, hi int
	ok     int // steps whose every request succeeded
	wall   time.Duration
	cpu    time.Duration // the server's utime+stime over the slice
}

func (s *session) closedLoop(ctx context.Context, m *measured) error {
	steps := s.plan.closed
	for c := 0; c < closedSlices; c++ {
		sl := slice{lo: c * len(steps) / closedSlices, hi: (c + 1) * len(steps) / closedSlices}
		if sl.lo == sl.hi {
			continue
		}
		s.sample()
		cpu0, err := s.srv.cpu()
		if err != nil {
			return err
		}
		res, wall, err := runClosed(ctx, s.client, s.srv.base, steps[sl.lo:sl.hi])
		if err != nil {
			return err
		}
		cpu1, err := s.srv.cpu()
		if err != nil {
			return err
		}
		sl.wall, sl.cpu = wall, cpu1-cpu0
		for i := range res {
			if res[i].ok() {
				sl.ok++
			}
		}
		m.slices = append(m.slices, sl)
		m.closed = append(m.closed, res...)
	}
	s.sample()
	return nil
}

// verify judges every measured reply, then crashes the server and checks
// that what it acknowledged survived.
func (s *session) verify(ctx context.Context, m *measured) error {
	var searches []*reply
	note := func(rep *reply) {
		if rep.req.kind == kindBatch {
			s.chk.commit(rep)
		} else {
			searches = append(searches, rep)
		}
	}
	for _, sr := range m.closed {
		for _, rep := range sr.replies {
			note(rep)
		}
	}
	for _, lane := range m.open {
		for _, rep := range lane {
			note(rep)
		}
	}
	if err := s.chk.searches(ctx, searches); err != nil {
		return err
	}
	if !s.cfg.durable {
		return nil
	}
	if err := s.crashRestart(ctx); err != nil {
		return err
	}
	return s.chk.durability(ctx, s.client, s.srv.base, s.sz.readbacks)
}

// endToEnd computes the eight end-to-end metrics of an untraced run. Times
// are the calm slice's, stated at the reference speed (see speed.go); the
// numbers as the clock read them go to stderr.
func (s *session) endToEnd(m *measured) *result {
	var lat []float64
	attempted, failed := 0, 0
	for _, sr := range m.closed {
		if sr.ok() {
			lat = append(lat, ms(sr.latency))
		}
		for _, rep := range sr.replies {
			attempted++
			if !rep.ok() {
				failed++
			}
		}
	}
	sloOK, openReqs := 0, 0
	for _, lane := range m.open {
		for _, rep := range lane {
			attempted++
			openReqs++
			if !rep.ok() {
				failed++
			} else if ms(rep.latency) <= s.wl.sloMS {
				sloOK++
			}
		}
	}
	// Per slice: wall and CPU milliseconds per successful step, and the
	// median latency. A slice without a successful step makes them infinite
	// and fails the run.
	var stepMS, cpuMS, p50s []float64
	var wall time.Duration
	for _, sl := range m.slices {
		var l []float64
		for _, sr := range m.closed[sl.lo:sl.hi] {
			if sr.ok() {
				l = append(l, ms(sr.latency))
			}
		}
		p50, _ := percentile(l, 0.50)
		p50s = append(p50s, p50)
		stepMS = append(stepMS, ms(sl.wall)/float64(sl.ok))
		cpuMS = append(cpuMS, ms(sl.cpu)/float64(sl.ok))
		wall += sl.wall
	}
	setup, rate, p50, cpu := median(m.setups), 1000/calm(stepMS), calm(p50s), calm(cpuMS)
	p95, beyond := slicedPercentile(lat, 0.95)
	open := openStats(m.open)
	fmt.Fprintf(os.Stderr, "%s seed %d: slowdown %.3f over %d probes; as clocked: set-ups %.3v s, closed %d steps in %.2fs, %.4g steps/s, p50 %.4gms, p95 %.4gms over %d samples (%d beyond it in the smallest slice), cpu %.4gms/step; open %d requests at %.4g/s, p50 %.3gms p95 %.3gms max %.3gms, lateness p95 %.3gms; rss peak %.1fMB; verified %d of %d checks\n",
		s.wl.name, s.in.seed, m.slowdown, len(s.probes), m.setups, len(m.closed), wall.Seconds(), rate, p50, p95, len(lat), beyond, cpu,
		openReqs, s.wl.openRate, open.p50, open.p95, open.max, open.latenessP95, m.rssPeakMB, s.chk.verified, s.chk.checked)
	fmt.Fprintf(os.Stderr, "%s seed %d: per slice, as clocked: ms/step %.3v, p50 ms %.3v, cpu ms/step %.3v; probes ms %.3v\n",
		s.wl.name, s.in.seed, stepMS, p50s, cpuMS, s.probes)
	return &result{
		Correct:   s.chk.verified == s.chk.checked,
		Attempted: attempted,
		Failed:    failed,
		Metrics: map[string]metric{
			"setup_s":       {setup / m.slowdown, "s"},
			"ops_per_s":     {rate * m.slowdown, "1/s"},
			"p50_ms":        {p50 / m.slowdown, "ms"},
			"p95_ms":        {p95 / m.slowdown, "ms"},
			"cpu_ms_per_op": {cpu / m.slowdown, "ms"},
			"ok_share":      {float64(attempted-failed) / float64(attempted), "share"},
			"correct_share": {s.chk.share(), "share"},
			"slo_ok_share":  {float64(sloOK) / float64(max(openReqs, 1)), "share"},
		},
	}
}

// openSummary describes the open loop. Its quantiles did not repeat within
// a tenth between identical runs on the 2-core box, so they are reported
// per layer and on stderr, not gated end to end.
type openSummary struct{ p50, p95, max, latenessP95 float64 }

func openStats(lanes [][]*reply) openSummary {
	var lat, late []float64
	for _, lane := range lanes {
		for _, rep := range lane {
			if rep.ok() {
				lat = append(lat, ms(rep.latency))
			}
			late = append(late, ms(rep.late))
		}
	}
	var o openSummary
	o.p50, _ = percentile(lat, 0.50)
	o.p95, _ = percentile(lat, 0.95)
	o.max, _ = percentile(lat, 1)
	o.latenessP95, _ = percentile(late, 0.95)
	return o
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

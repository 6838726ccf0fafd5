package main

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"rap/internal/core"
	"rap/internal/ingest"
)

// serveEpsilon is daemon-serve's error bound: a fine profile, so epoch
// publish, hot-range walks and JSON encoding do real work.
const serveEpsilon = 0.001

// serveChunk is how many events the stdin generator writes at once.
const serveChunk = 1024

func serveArgs(ck string) []string {
	return []string{"-stdin", "-admin", "127.0.0.1:0", "-epsilon", fmt.Sprint(serveEpsilon), "-checkpoint-dir", ck}
}

func serveConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Epsilon = serveEpsilon
	return cfg
}

// serveStream is the daemon-serve input: a seeded parser value stream of
// rate×seconds events, whole blocks only.
func serveStream(c config, d time.Duration) (*stream, error) {
	n := int(c.serveRate*d.Seconds()) / blockLen * blockLen
	return valueStream("parser", c.seed, max(n, blockLen))
}

// served is one finished daemon-serve session.
type served struct {
	t0, writeEnd time.Time
	visibleAt    time.Time // the last offered event became visible on /v1, or the wait gave up
	visible      bool      // every offered event became visible on /v1
	answers      []answer  // due before writeEnd
	late         []float64
	exit         exit
	final        uint64 // N in rapd's closing stats
}

// sched is when the chunk holding event i (0-based) was due on stdin.
func (sv *served) sched(i int, s *stream, rate float64) time.Time {
	end := min((i/serveChunk+1)*serveChunk, len(s.values))
	return sv.t0.Add(time.Duration(float64(end) / rate * float64(time.Second)))
}

// serve runs one daemon-serve session: rapd reads s from stdin, written
// on a fixed open-loop schedule, while a second goroutine sends the /v1
// mix at a fixed rate over one keep-alive connection. When the schedule
// ends it waits for the last events to become visible, closes stdin, and
// waits for rapd to drain, checkpoint into ck and exit.
func serve(c config, s *stream, ck string) (*served, error) {
	pr, pw, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	d, err := startRapd(c.rapd, serveArgs(ck), pr)
	pr.Close()
	if err != nil {
		pw.Close()
		return nil, err
	}
	addr, _, err := d.waitListening(30 * time.Second)
	if err != nil {
		pw.Close()
		return nil, err
	}
	sv := &served{t0: time.Now().Add(20 * time.Millisecond)}
	n := len(s.values)

	stop := make(chan struct{})
	got := make(chan []answer, 1)
	go func() { got <- openLoop(addr, s, c.serveQuery, sv.t0, stop) }()
	var werr error
	for i := 0; i < n; i += serveChunk {
		j := min(i+serveChunk, n)
		due := sv.t0.Add(time.Duration(float64(j) / c.serveRate * float64(time.Second)))
		time.Sleep(time.Until(due))
		if _, werr = pw.Write(s.chunk(i, j)); werr != nil {
			break
		}
		sv.late = append(sv.late, ms(time.Since(due)))
	}
	sv.writeEnd = time.Now()
	close(stop)
	for _, a := range <-got {
		if !a.due.After(sv.writeEnd) {
			sv.answers = append(sv.answers, a)
		}
	}
	if werr == nil {
		sv.visibleAt, sv.visible = waitVisible(addr, uint64(n), 10*time.Second)
	}
	pw.Close()
	if sv.exit, err = d.wait(time.Minute); err != nil {
		return nil, err
	}
	if werr != nil {
		return nil, fmt.Errorf("writing rapd's stdin: %w", werr)
	}
	sv.final, _ = d.logValue("msg=stats", "n")
	return sv, nil
}

// waitVisible polls /v1/stats until its epoch covers n events and returns
// the time it first did, or the time it gave up and false.
func waitVisible(addr string, n uint64, timeout time.Duration) (time.Time, bool) {
	c := newClient()
	defer c.CloseIdleConnections()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		resp, err := c.Get("http://" + addr + "/v1/stats")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && resp.Header.Get("X-RAP-Epoch-Cut") == fmt.Sprint(n) {
				return time.Now(), true
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return time.Now(), false
}

// serveRestarts is how many times daemon-serve restarts rapd on its
// checkpoint; restart_s is their median.
const serveRestarts = 5

// runDaemonServe is the daemon-serve workload: reads beside writes. See
// serve for the session. After it, rapd restarts on its checkpoint with the
// same stream replayed on stdin from a file, which times recovery of a
// stdin daemon; restart times are net of the hypervisor's steal (see
// netOfSteal). setup_s is the median of bare start-ups, half of them timed
// before the session and half after the restarts, so that a slow minute on
// a shared host weighs on only part of them.
func runDaemonServe(c config, t *tally) error {
	s, err := serveStream(c, c.seconds)
	if err != nil {
		return err
	}
	n := len(s.values)
	runtime.GC()
	var setup []float64
	// One warm-up start-up is thrown away first.
	if _, err := probeSetup(c, s, -1); err != nil {
		return err
	}
	for p := 0; p < c.probes/2; p++ {
		su, err := probeSetup(c, s, p)
		if err != nil {
			return err
		}
		setup = append(setup, su)
	}

	ck := filepath.Join(c.work, "ck")
	sv, err := serve(c, s, ck)
	if err != nil {
		return err
	}
	t.check(sv.visible, "daemon-serve: the last of %d events never became visible on /v1", n)
	t.check(sv.final == uint64(n), "daemon-serve: rapd applied %d of %d events", sv.final, n)
	lat, lag, perEP := sv.score(t, s, c.serveRate)

	replayPath := filepath.Join(c.work, "parser-values.trace")
	if err := os.WriteFile(replayPath, s.data, 0o644); err != nil {
		return err
	}
	var restart, rawRestart, shares []float64
	for i := 0; i < serveRestarts; i++ {
		replay, err := os.Open(replayPath)
		if err != nil {
			return err
		}
		h0 := readHostCPU()
		r, err := startRapd(c.rapd, serveArgs(ck), replay)
		replay.Close()
		if err != nil {
			return err
		}
		rex, err := r.wait(2 * time.Minute)
		if err != nil {
			return err
		}
		share := stealShare(h0, readHostCPU())
		restart = append(restart, secs(netOfSteal(rex.at.Sub(r.started), share)))
		rawRestart = append(rawRestart, secs(rex.at.Sub(r.started)))
		shares = append(shares, share)
		rec, _ := r.logValue("recovered events from checkpoint", "events")
		final, _ := r.logValue("msg=stats", "n")
		t.check(rec == uint64(n) && final == uint64(n), "daemon-serve restart: recovered %d, final n %d, want %d", rec, final, n)
	}
	if err := checkCheckpoint(t, s, ck, serveConfig(), ingest.ReaderSource("stdin", bytes.NewReader(nil))); err != nil {
		return err
	}
	for p := c.probes / 2; p < c.probes; p++ {
		su, err := probeSetup(c, s, p)
		if err != nil {
			return err
		}
		setup = append(setup, su)
	}

	t.note("daemon-serve: %d events offered at %.0f/s, %d /v1 answers at %.0f/s offered, gen.late_p99_ms=%.3f",
		n, c.serveRate, len(sv.answers), c.serveQuery, quantile(sv.late, 0.99))
	t.note("restart steal share median %.4f, max %.4f; before netting it: restart_s %.6g s",
		median(shares), quantile(shares, 1), median(rawRestart))
	for ep, xs := range perEP {
		t.note("  /v1/%s: %d answers, p50 %.3f ms", endpointNames[ep], len(xs), quantile(xs, 0.5))
	}
	t.set("ingest_eps", "1/s", float64(n)/sv.visibleAt.Sub(sv.t0).Seconds())
	t.set("cpu_ns_per_event", "ns", float64(sv.exit.cpu.Nanoseconds())/float64(n))
	t.set("peak_rss_mb", "MB", sv.exit.maxRSSMB)
	t.set("setup_s", "s", median(setup))
	t.set("restart_s", "s", median(restart))
	setQueryMetrics(t, lat, lag)
	return nil
}

// probeSetup starts rapd as daemon-serve does, on a fresh checkpoint
// directory and a stdin holding only the trace header of s, and returns
// the seconds from exec to "admin listening"; rapd then reads end of input
// and exits.
func probeSetup(c config, s *stream, p int) (float64, error) {
	d, err := startRapd(c.rapd, serveArgs(filepath.Join(c.work, fmt.Sprintf("probe%d", p))), bytes.NewReader(s.chunk(0, 0)))
	if err != nil {
		return 0, err
	}
	_, su, err := d.waitListening(30 * time.Second)
	if err != nil {
		return 0, err
	}
	if _, err := d.wait(time.Minute); err != nil {
		return 0, err
	}
	return secs(su), nil
}

// score checks every answer of the session and returns the pooled /v1
// latencies, the visibility lags and the latencies per endpoint, all in
// milliseconds. The lag of an answer is its response time minus the
// scheduled write time of the newest event its epoch holds; answers from
// the empty first epoch have no such event and no lag.
func (sv *served) score(t *tally, s *stream, rate float64) (lat, lag []float64, perEP [numEndpoints][]float64) {
	for _, a := range sv.answers {
		if a.err != nil {
			t.check(false, "/v1/%s: %v", endpointNames[a.ep], a.err)
			continue
		}
		checkAnswer(t, s, a)
		l := ms(a.latency())
		lat = append(lat, l)
		perEP[a.ep] = append(perEP[a.ep], l)
		if a.status == http.StatusOK && a.cut > 0 {
			lag = append(lag, ms(a.done.Sub(sv.sched(int(a.cut)-1, s, rate))))
		}
	}
	t.check(len(lat) > 0, "daemon-serve: no /v1 answers")
	return lat, lag, perEP
}

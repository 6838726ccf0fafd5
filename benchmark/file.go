package main

import (
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"rap/internal/core"
	"rap/internal/ingest"
)

// runDaemonFile is the daemon-file workload: rapd ingests a seeded gzip
// value trace from a file as a closed batch job and exits; then a second
// rapd restarts on the same checkpoint and trace, which times recovery.
// While the first one runs, a light open-loop /v1 mix watches it, as a
// monitoring client would. Each iteration uses a fresh checkpoint
// directory; iterations repeat for the run's measured time and the
// metrics are medians over them. Ingest and restart times are net of the
// hypervisor's steal (see netOfSteal); the raw figures are printed.
func runDaemonFile(c config, t *tally) error {
	s, err := valueStream("gzip", c.seed, c.fileEvents)
	if err != nil {
		return err
	}
	path := filepath.Join(c.work, "gzip-values.trace")
	if err := os.WriteFile(path, s.data, 0o644); err != nil {
		return err
	}
	runtime.GC()
	n := uint64(len(s.values))
	var setup, eps, cpu, rss, restart, lat, lag []float64
	var rawEps, rawRestart, shares []float64
	start := time.Now()
	var last time.Duration
	for it := 0; it < 2 || time.Since(start)+last <= c.seconds; it++ {
		itStart := time.Now()
		ck := filepath.Join(c.work, fmt.Sprintf("ck%d", it))
		args := []string{"-admin", "127.0.0.1:0", "-checkpoint-dir", ck, path}

		h0 := readHostCPU()
		d, err := startRapd(c.rapd, args, nil)
		if err != nil {
			return err
		}
		addr, su, err := d.waitListening(30 * time.Second)
		if err != nil {
			return err
		}
		stop := make(chan struct{})
		got := make(chan []answer, 1)
		go func() { got <- openLoop(addr, s, c.fileQueries, time.Now(), stop) }()
		select {
		case <-d.sourced:
		case <-d.exited:
		}
		share := stealShare(h0, readHostCPU())
		close(stop)
		answers := <-got
		ex, err := d.wait(time.Minute)
		if err != nil {
			return err
		}
		select {
		case <-d.sourced:
		default:
			return fmt.Errorf("rapd exited without finishing its source:\n%s", d.log())
		}
		final, _ := d.logValue("msg=stats", "n")
		t.check(final == n, "daemon-file: rapd applied %d of %d events", final, n)
		for i, a := range answers {
			if a.err != nil {
				// rapd closes its admin server as the batch job ends; a
				// request cut off by that is not an answer of the job.
				if i == len(answers)-1 && absDur(ex.at.Sub(a.done)) < 250*time.Millisecond {
					continue
				}
				t.check(false, "/v1/%s: %v", endpointNames[a.ep], a.err)
				continue
			}
			checkAnswer(t, s, a)
			lat = append(lat, ms(a.latency()))
			if a.status == http.StatusOK {
				lag = append(lag, a.ageSec*1000*(1-share))
			}
		}
		setup = append(setup, secs(su))
		wall := d.doneAt.Sub(d.listenAt)
		eps = append(eps, float64(n)/netOfSteal(wall, share).Seconds())
		rawEps = append(rawEps, float64(n)/wall.Seconds())
		shares = append(shares, share)
		cpu = append(cpu, float64(ex.cpu.Nanoseconds())/float64(n))
		rss = append(rss, ex.maxRSSMB)

		h0 = readHostCPU()
		r, err := startRapd(c.rapd, args, nil)
		if err != nil {
			return err
		}
		rex, err := r.wait(2 * time.Minute)
		if err != nil {
			return err
		}
		share = stealShare(h0, readHostCPU())
		restart = append(restart, secs(netOfSteal(rex.at.Sub(r.started), share)))
		rawRestart = append(rawRestart, secs(rex.at.Sub(r.started)))
		shares = append(shares, share)
		rec, _ := r.logValue("recovered events from checkpoint", "events")
		final, _ = r.logValue("msg=stats", "n")
		t.check(rec == n && final == n, "daemon-file restart: recovered %d, final n %d, want %d", rec, final, n)

		if err := checkCheckpoint(t, s, ck, core.DefaultConfig(), ingest.FileSource("trace0:"+path, path)); err != nil {
			return err
		}
		if err := os.RemoveAll(ck); err != nil {
			return err
		}
		last = time.Since(itStart)
	}
	t.note("daemon-file: %d iterations of %d events, %d /v1 answers", len(eps), n, len(lat))
	t.note("steal share median %.4f, max %.4f; before netting it: ingest_eps %.6g 1/s, restart_s %.6g s",
		median(shares), quantile(shares, 1), median(rawEps), median(rawRestart))
	t.set("ingest_eps", "1/s", median(eps))
	t.set("cpu_ns_per_event", "ns", median(cpu))
	t.set("peak_rss_mb", "MB", median(rss))
	t.set("setup_s", "s", median(setup))
	t.set("restart_s", "s", median(restart))
	setQueryMetrics(t, lat, lag)
	return nil
}

// setQueryMetrics sets visible_lag_p50_ms from pooled lags and prints the
// query latencies and the lag's tail, all in milliseconds. These are
// printed diagnostics, not metrics: on a small shared host their
// run-to-run spread is wider than any bound a regression gate could use.
func setQueryMetrics(t *tally, lat, lag []float64) {
	t.note("query latency: %d samples, p50 %.4f ms, p99 %.4f ms", len(lat), quantile(lat, 0.5), quantile(lat, 0.99))
	t.note("visible lag: %d samples, p99 %.4f ms", len(lag), quantile(lag, 0.99))
	t.set("visible_lag_p50_ms", "ms", quantile(lag, 0.5))
}

// checkCheckpoint opens the checkpoint rapd left in dir, as a restarted
// daemon would, and checks that it holds every event of s and brackets
// the exact count of every checked range within its bounds.
func checkCheckpoint(t *tally, s *stream, dir string, cfg core.Config, spec ingest.SourceSpec) error {
	in, err := ingest.Open(ingest.Options{
		Tree:          cfg,
		CheckpointDir: dir,
		Logger:        slog.New(slog.NewTextHandler(io.Discard, nil)),
	}, []ingest.SourceSpec{spec})
	if err != nil {
		return fmt.Errorf("opening checkpoint: %w", err)
	}
	n := len(s.values)
	t.check(in.N() == uint64(n), "checkpoint holds %d of %d events", in.N(), n)
	for r, sp := range s.ranges {
		low, high := in.Engine().EstimateBounds(sp.lo, sp.hi)
		exact := s.exact(r, n)
		t.check(low <= exact && exact <= high,
			"checkpoint [%d,%d]: exact %d outside [%d,%d]", sp.lo, sp.hi, exact, low, high)
	}
	return nil
}

func absDur(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
}

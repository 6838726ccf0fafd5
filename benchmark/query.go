package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// The /v1 query mix of the daemon workloads repeats every mixLen
// requests: mostly /v1/estimate over the stream's checked ranges, with
// some /v1/hotranges and /v1/stats.
const mixLen = 20

type endpoint int

const (
	estimate endpoint = iota
	hotranges
	statsEP
	numEndpoints
)

var endpointNames = [numEndpoints]string{"estimate", "hotranges", "stats"}

// mixRequest is request k of the mix: its endpoint, the checked range of
// an estimate and the threshold of a hot-range query.
func mixRequest(k int, s *stream) (ep endpoint, r int, theta float64) {
	switch k % mixLen {
	case 5, 15:
		if k/mixLen%2 == 0 {
			return hotranges, 0, 0.01
		}
		return hotranges, 0, 0.05
	case 10, 19:
		return statsEP, 0, 0
	}
	return estimate, k % len(s.ranges), 0
}

// answer is one /v1 response.
type answer struct {
	ep       endpoint
	r        int       // checked range of an estimate
	due      time.Time // scheduled send time
	start    time.Time // latency origin; see openLoop
	done     time.Time
	status   int
	err      error   // transport error; nothing was answered
	cut      uint64  // X-RAP-Epoch-Cut
	low      uint64  // estimate bracket
	high     uint64  //
	n        uint64  // hotranges and stats N
	ageSec   float64 // epoch.age_seconds
	parseErr error
}

func (a answer) latency() time.Duration { return a.done.Sub(a.start) }

type v1Body struct {
	Low   uint64 `json:"low"`
	High  uint64 `json:"high"`
	N     uint64 `json:"n"`
	Epoch struct {
		AgeSeconds float64 `json:"age_seconds"`
	} `json:"epoch"`
}

// newClient is an HTTP client holding at most one keep-alive connection.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// ask sends request k of the mix and parses the answer.
func ask(c *http.Client, addr string, s *stream, k int, due time.Time) answer {
	ep, r, theta := mixRequest(k, s)
	var url string
	switch ep {
	case estimate:
		url = fmt.Sprintf("http://%s/v1/estimate?lo=%d&hi=%d", addr, s.ranges[r].lo, s.ranges[r].hi)
	case hotranges:
		url = fmt.Sprintf("http://%s/v1/hotranges?theta=%g", addr, theta)
	default:
		url = fmt.Sprintf("http://%s/v1/stats", addr)
	}
	a := answer{ep: ep, r: r, due: due, start: time.Now()}
	resp, err := c.Get(url)
	if err != nil {
		a.err, a.done = err, time.Now()
		return a
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	a.done = time.Now()
	a.status = resp.StatusCode
	if err != nil {
		a.err = err
		return a
	}
	if a.status != http.StatusOK {
		return a
	}
	a.cut, a.parseErr = strconv.ParseUint(resp.Header.Get("X-RAP-Epoch-Cut"), 10, 64)
	var b v1Body
	if err := json.Unmarshal(body, &b); err != nil && a.parseErr == nil {
		a.parseErr = err
	}
	a.low, a.high, a.n, a.ageSec = b.Low, b.High, b.N, b.Epoch.AgeSeconds
	return a
}

// openLoop sends the mix at a fixed rate from t0 over one connection
// until stop is closed or a transport error ends it. Request k is due at
// t0 + k/rate whether or not earlier answers were late. When an earlier
// answer arrived after a request was due, the request's latency counts
// from its due time, so a stall shows in the latency of every request
// queued behind it. Otherwise it counts from the actual send, so the
// generator's own timer slack is not charged to the system.
func openLoop(addr string, s *stream, rate float64, t0 time.Time, stop <-chan struct{}) []answer {
	c := newClient()
	defer c.CloseIdleConnections()
	var out []answer
	var prevDone time.Time
	for k := 0; ; k++ {
		due := t0.Add(time.Duration(float64(k) / rate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			select {
			case <-stop:
				return out
			case <-time.After(d):
			}
		} else {
			select {
			case <-stop:
				return out
			default:
			}
		}
		a := ask(c, addr, s, k, due)
		if prevDone.After(due) {
			a.start = due
		}
		prevDone = a.done
		out = append(out, a)
		if a.err != nil {
			return out
		}
	}
}

// checkAnswer counts one answered request: it must be a 200 with epoch
// headers, an estimate must bracket the exact count of its range over the
// epoch's prefix of the stream, and N must equal the epoch's cut.
func checkAnswer(t *tally, s *stream, a answer) {
	if a.status != http.StatusOK || a.parseErr != nil {
		t.check(false, "/v1/%s: status %d parse %v", endpointNames[a.ep], a.status, a.parseErr)
		return
	}
	if a.cut > uint64(len(s.values)) {
		t.check(false, "/v1/%s: epoch cut %d beyond the %d events offered", endpointNames[a.ep], a.cut, len(s.values))
		return
	}
	switch a.ep {
	case estimate:
		exact := s.exact(a.r, int(a.cut))
		t.check(a.low <= exact && exact <= a.high,
			"/v1/estimate [%d,%d] at cut %d: exact %d outside [%d,%d]",
			s.ranges[a.r].lo, s.ranges[a.r].hi, a.cut, exact, a.low, a.high)
	default:
		t.check(a.n == a.cut, "/v1/%s: n %d != epoch cut %d", endpointNames[a.ep], a.n, a.cut)
	}
}

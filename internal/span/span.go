// Package span is the zero-dependency request-scoped tracing subsystem of
// the profiler: trace/span identifiers, parent links, wall-clock timing
// with attributes, a bounded lock-free span ring, and W3C traceparent
// propagation (see propagate.go) so one operation — a snapshot shipment, a
// /v1 query — can be followed across processes.
//
// The design mirrors the obs package's split between hot-path updates and
// scrape-time collection. Starting a span is an allocation and a couple of
// atomic increments; the keep/drop decision is deferred to End, where the
// duration is known, so the sampler can combine three policies:
//
//   - head-based rate: 1 in SampleRate roots is recorded with all of its
//     children, giving an unbiased latency census at bounded cost;
//   - slow-op promotion: any span whose duration reaches SlowThreshold is
//     recorded (and logged in the slow-op ring) even when its trace lost
//     the head coin — tail latency is exactly what sampling would hide;
//   - forced recording: while the Force hook reports true (the daemon
//     wires it to "any alert firing"), every span is recorded, so the
//     minutes that matter are traced at 100%.
//
// The tree's structural decisions (splits, merges, audit findings,
// admission transitions) are recorded on the same ring as zero-duration
// root "events" (see Event), under the same policy, so one ring, one
// sampler and one JSONL row format serve both.
//
// Recorded spans land in a fixed-size ring of atomic pointers — writers
// never block each other or readers — and are exported as JSONL over
// /spans (events alone over /trace), in diagnostic bundles, and to
// offline analysis via rapdiag.
package span

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rap/internal/obs"
)

// TraceID is the 16-byte W3C trace identifier shared by every span of one
// operation.
type TraceID [16]byte

// IsZero reports whether the trace ID is the invalid all-zeros value.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// String renders the ID as 32 lowercase hex digits, the traceparent form.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// SpanID is the 8-byte W3C span identifier.
type SpanID [8]byte

// IsZero reports whether the span ID is the invalid all-zeros value.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String renders the ID as 16 lowercase hex digits, the traceparent form.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// Context identifies one position in one trace: enough to parent a child
// span or to propagate the trace across a process boundary. Sampled
// carries the head-based decision with the trace, so a downstream process
// records the spans an upstream one decided to keep.
type Context struct {
	Trace   TraceID
	Span    SpanID
	Sampled bool
}

// Valid reports whether both IDs are non-zero — the W3C validity rule.
func (c Context) Valid() bool { return !c.Trace.IsZero() && !c.Span.IsZero() }

// Attr is one key/value annotation on a span. Values are strings; callers
// format numbers themselves (spans are for humans and JSONL, not math).
type Attr struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// Span is one timed operation within a trace. It is created by a Tracer,
// annotated with SetAttr, and finished exactly once with End; only End
// decides whether the span is recorded. A nil *Span is a valid no-op
// receiver for every method, so call sites need no tracer-enabled checks.
type Span struct {
	tr     *Tracer
	ctx    Context
	parent SpanID
	name   string
	start  time.Time
	forced bool // recording forced at start (alert firing)

	mu    sync.Mutex
	attrs []Attr
	ended bool
}

// Record is the exported, JSON-stable form of a finished span — the
// /spans JSONL row.
type Record struct {
	TraceID    string `json:"trace_id"`
	SpanID     string `json:"span_id"`
	ParentID   string `json:"parent_id,omitempty"`
	Name       string `json:"name"`
	StartNano  int64  `json:"start_unix_nano"`
	DurationNs int64  `json:"duration_ns"`
	Sampled    bool   `json:"sampled"`        // won the head coin (vs slow/forced promotion)
	Slow       bool   `json:"slow,omitempty"` // reached the slow-op threshold
	Attrs      []Attr `json:"attrs,omitempty"`

	// ev holds a recorded event's raw identity and decision; Spans formats
	// them into the fields above, so recording an event formats nothing.
	ev *event
}

// Options configures a Tracer. Zero values select the defaults noted per
// field.
type Options struct {
	// SampleRate keeps 1 in SampleRate root spans (with their children)
	// and 1 in SampleRate events. 1 keeps everything; 0 selects the
	// default 100 (1%).
	SampleRate uint64
	// Capacity is the span ring size. Default 4096.
	Capacity int
	// SlowCapacity is the slow-op log size. Default 64.
	SlowCapacity int
	// SlowThreshold promotes any span at least this long into the ring and
	// the slow-op log regardless of sampling. 0 selects the default 100ms;
	// negative disables promotion.
	SlowThreshold time.Duration
	// Force, when set and returning true, records every span finished
	// while it holds — the "always-on for ops that trip an alert" policy.
	// It is consulted once per root start, once per span end, and once per
	// event that loses its head coin; it must be cheap and safe for
	// concurrent use.
	Force func() bool
}

func (o Options) withDefaults() Options {
	if o.SampleRate == 0 {
		o.SampleRate = 100
	}
	if o.Capacity <= 0 {
		o.Capacity = 4096
	}
	if o.SlowCapacity <= 0 {
		o.SlowCapacity = 64
	}
	if o.SlowThreshold == 0 {
		o.SlowThreshold = 100 * time.Millisecond
	}
	return o
}

// Tracer creates spans and owns the recorded-span ring. All methods are
// safe for concurrent use.
type Tracer struct {
	opt    Options
	roots  atomic.Uint64 // head-based sampling counter
	events atomic.Uint64 // the events' own head-coin counter (see Event)

	// ring is the bounded lock-free store of finished, kept spans: a
	// writer claims the next slot with one atomic add and publishes the
	// record with one atomic store. Readers see a consistent recent
	// window without ever blocking a writer; a torn window (a slot being
	// overwritten mid-read) yields either the old or the new record,
	// never garbage.
	ring []atomic.Pointer[Record]
	pos  atomic.Uint64

	slowMu   sync.Mutex
	slowLog  []Record // ring, oldest at slowNext once full
	slowNext int

	started  atomic.Uint64
	recorded atomic.Uint64
	slow     atomic.Uint64
	forced   atomic.Uint64
}

// New builds a Tracer.
func New(opt Options) *Tracer {
	opt = opt.withDefaults()
	return &Tracer{
		opt:  opt,
		ring: make([]atomic.Pointer[Record], opt.Capacity),
	}
}

// SampleRate returns the configured 1-in-N head sampling rate.
func (tr *Tracer) SampleRate() uint64 { return tr.opt.SampleRate }

// SlowThreshold returns the slow-op promotion threshold.
func (tr *Tracer) SlowThreshold() time.Duration { return tr.opt.SlowThreshold }

// newIDs returns a fresh random trace ID. math/rand/v2's global generator
// is goroutine-safe and unseedable-from-outside, which is exactly right:
// IDs need uniqueness, not secrecy.
func newTraceID() TraceID {
	var t TraceID
	putU64(t[:8], rand.Uint64())
	putU64(t[8:], rand.Uint64())
	return t
}

func newSpanID() SpanID {
	var s SpanID
	for {
		putU64(s[:], rand.Uint64())
		if !s.IsZero() {
			return s
		}
	}
}

func putU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * uint(7-i)))
	}
}

// StartRoot begins a new trace: a root span with a fresh trace ID. The
// head-based sampling decision is taken here and inherited by children.
func (tr *Tracer) StartRoot(name string) *Span {
	return tr.StartRootAt(name, time.Now())
}

// StartRootAt is StartRoot with an explicit start time, for call sites
// that stamped the clock before deciding to trace (queue enqueue).
func (tr *Tracer) StartRootAt(name string, start time.Time) *Span {
	if tr == nil {
		return nil
	}
	tr.started.Add(1)
	n := tr.roots.Add(1)
	forced := tr.opt.Force != nil && tr.opt.Force()
	return &Span{
		tr: tr,
		ctx: Context{
			Trace:   newTraceID(),
			Span:    newSpanID(),
			Sampled: n%tr.opt.SampleRate == 0,
		},
		name:   name,
		start:  start,
		forced: forced,
	}
}

// StartChild begins a span inside an existing trace — a local parent's or
// one propagated from another process via traceparent. The parent's
// sampled flag is inherited: a sampled trace keeps all of its spans.
func (tr *Tracer) StartChild(parent Context, name string) *Span {
	return tr.StartChildAt(parent, name, time.Now())
}

// StartChildAt is StartChild with an explicit start time, so a span can
// cover an interval that began before the call (queue wait).
func (tr *Tracer) StartChildAt(parent Context, name string, start time.Time) *Span {
	if tr == nil {
		return nil
	}
	tr.started.Add(1)
	return &Span{
		tr: tr,
		ctx: Context{
			Trace:   parent.Trace,
			Span:    newSpanID(),
			Sampled: parent.Sampled,
		},
		parent: parent.Span,
		name:   name,
		start:  start,
	}
}

// EventPrefix begins the name of every event record, so /trace and the
// bundle's trace.jsonl can select events out of the shared ring.
const EventPrefix = "event."

// Decision is the state one structural decision was taken on, recorded as
// an event's attributes: the runtime analogue of the paper's Figure 2
// region tracking, enough to replay how the tree adapted without holding
// the stream. Events other than splits and merges reuse the fields (see
// their call sites).
type Decision struct {
	Shard     string  // owning shard; omitted when empty
	Lo, Hi    uint64  // inclusive range acted on
	Depth     int     // split steps below the root
	Count     uint64  // counter the decision compared
	Threshold float64 // bound it was compared with
	N         uint64  // stream position at the decision
}

// attrs renders the decision as span attributes.
func (d Decision) attrs() []Attr {
	out := make([]Attr, 0, 7)
	if d.Shard != "" {
		out = append(out, Attr{"shard", d.Shard})
	}
	return append(out,
		Attr{"lo", strconv.FormatUint(d.Lo, 10)},
		Attr{"hi", strconv.FormatUint(d.Hi, 10)},
		Attr{"depth", strconv.Itoa(d.Depth)},
		Attr{"count", strconv.FormatUint(d.Count, 10)},
		Attr{"threshold", strconv.FormatFloat(d.Threshold, 'g', -1, 64)},
		Attr{"n", strconv.FormatUint(d.N, 10)},
	)
}

// event is a recorded Event before Spans formats it.
type event struct {
	name  string
	trace TraceID
	span  SpanID
	d     Decision
}

// Event records one structural decision — a split, a merge, an audit
// finding, an admission transition — as a zero-duration root record named
// EventPrefix+name with d as its attributes, on the shared ring. The
// event is kept when it wins a 1-in-SampleRate head coin counted apart
// from the root spans' coin, while the Force hook holds, or when always
// is set (for rare events that must never be sampled away). A dropped
// decision costs one atomic add and the Force check and allocates
// nothing; a kept one costs one allocation, since formatting waits for
// a reader (Spans).
func (tr *Tracer) Event(name string, always bool, d Decision) {
	if tr == nil {
		return
	}
	sampled := tr.events.Add(1)%tr.opt.SampleRate == 0
	forced := !sampled && !always && tr.opt.Force != nil && tr.opt.Force()
	if !sampled && !forced && !always {
		return
	}
	r := &struct {
		rec Record
		ev  event
	}{
		rec: Record{StartNano: time.Now().UnixNano(), Sampled: sampled},
		ev:  event{name: name, trace: newTraceID(), span: newSpanID(), d: d},
	}
	r.rec.ev = &r.ev
	tr.started.Add(1)
	if forced {
		tr.forced.Add(1)
	}
	tr.store(&r.rec)
}

// Context returns the span's trace position, for parenting children or
// encoding a traceparent. The zero Context is returned from a nil span.
func (s *Span) Context() Context {
	if s == nil {
		return Context{}
	}
	return s.ctx
}

// Sampled reports whether this span's trace won the head-based coin (or
// recording was forced at start). Call sites use it to skip work that only
// matters for kept traces (extra attributes, stat deltas).
func (s *Span) Sampled() bool {
	if s == nil {
		return false
	}
	return s.ctx.Sampled || s.forced
}

// SetAttr annotates the span. Safe to call concurrently with End (the
// attribute may or may not make the recorded span, as with any race).
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	}
	s.mu.Unlock()
}

// End finishes the span at time.Now.
func (s *Span) End() { s.EndAt(time.Now()) }

// EndAt finishes the span at the given time and applies the recording
// decision: kept when the trace is sampled, recording is forced (at start
// or right now), or the span reached the slow-op threshold. Later calls
// are no-ops.
func (s *Span) EndAt(end time.Time) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	attrs := s.attrs
	s.mu.Unlock()

	tr := s.tr
	dur := end.Sub(s.start)
	slow := tr.opt.SlowThreshold > 0 && dur >= tr.opt.SlowThreshold
	forced := s.forced || (tr.opt.Force != nil && tr.opt.Force())
	if !s.ctx.Sampled && !forced && !slow {
		return
	}
	rec := &Record{
		TraceID:    s.ctx.Trace.String(),
		SpanID:     s.ctx.Span.String(),
		Name:       s.name,
		StartNano:  s.start.UnixNano(),
		DurationNs: dur.Nanoseconds(),
		Sampled:    s.ctx.Sampled,
		Slow:       slow,
		Attrs:      attrs,
	}
	if !s.parent.IsZero() {
		rec.ParentID = s.parent.String()
	}
	if forced && !s.ctx.Sampled {
		tr.forced.Add(1)
	}
	tr.store(rec)
	if slow {
		tr.slow.Add(1)
		tr.slowMu.Lock()
		if len(tr.slowLog) < tr.opt.SlowCapacity {
			tr.slowLog = append(tr.slowLog, *rec)
		} else {
			tr.slowLog[tr.slowNext] = *rec
			tr.slowNext = (tr.slowNext + 1) % len(tr.slowLog)
		}
		tr.slowMu.Unlock()
	}
}

// store publishes a kept record in the next ring slot.
func (tr *Tracer) store(rec *Record) {
	tr.recorded.Add(1)
	i := tr.pos.Add(1) - 1
	tr.ring[i%uint64(len(tr.ring))].Store(rec)
}

// Started returns the total spans started, counting kept events only.
func (tr *Tracer) Started() uint64 { return tr.started.Load() }

// Recorded returns the total spans kept in the ring (including ones the
// ring has since overwritten).
func (tr *Tracer) Recorded() uint64 { return tr.recorded.Load() }

// Evicted returns how many recorded spans the ring has overwritten.
func (tr *Tracer) Evicted() uint64 {
	if n := tr.pos.Load(); n > uint64(len(tr.ring)) {
		return n - uint64(len(tr.ring))
	}
	return 0
}

// Spans returns the retained spans ordered oldest-first by start time.
// The read is lock-free: a concurrent writer may replace a slot mid-scan,
// yielding its old or new record — both are real spans.
func (tr *Tracer) Spans() []Record {
	out := make([]Record, 0, len(tr.ring))
	for i := range tr.ring {
		r := tr.ring[i].Load()
		if r == nil {
			continue
		}
		rec := *r
		if ev := r.ev; ev != nil {
			rec.TraceID, rec.SpanID = ev.trace.String(), ev.span.String()
			rec.Name = EventPrefix + ev.name
			rec.Attrs = ev.d.attrs()
			rec.ev = nil
		}
		out = append(out, rec)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].StartNano < out[j].StartNano })
	return out
}

// SlowOps returns the slow-op log oldest-first: every retained span that
// reached the slow threshold, regardless of sampling.
func (tr *Tracer) SlowOps() []Record {
	tr.slowMu.Lock()
	defer tr.slowMu.Unlock()
	out := make([]Record, 0, len(tr.slowLog))
	out = append(out, tr.slowLog[tr.slowNext:]...)
	out = append(out, tr.slowLog[:tr.slowNext]...)
	return out
}

// named returns the spans whose name begins with prefix, in place.
func named(spans []Record, prefix string) []Record {
	kept := spans[:0]
	for _, s := range spans {
		if strings.HasPrefix(s.Name, prefix) {
			kept = append(kept, s)
		}
	}
	return kept
}

// WriteJSONL writes the retained spans whose name begins with prefix (""
// for all) oldest-first, one JSON object per line — the bundle and
// offline-analysis format.
func (tr *Tracer) WriteJSONL(w io.Writer, prefix string) error {
	enc := json.NewEncoder(w)
	for _, rec := range named(tr.Spans(), prefix) {
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return nil
}

// ServeHTTP exposes the span ring as application/jsonl. Query params:
// ?trace=<32 hex> filters to one trace, ?name=<prefix> to a span-name
// prefix, ?slow=1 to slow-promoted spans, ?limit=N caps the newest rows.
func (tr *Tracer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr.serve(w, r, r.URL.Query().Get("name"))
}

// EventHandler serves the event records alone — the /trace endpoint,
// the same rows as /spans?name=event. — with the other ServeHTTP params.
func (tr *Tracer) EventHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr.serve(w, r, EventPrefix)
	})
}

func (tr *Tracer) serve(w http.ResponseWriter, r *http.Request, prefix string) {
	q := r.URL.Query()
	spans := named(tr.Spans(), prefix)
	if t := q.Get("trace"); t != "" {
		kept := spans[:0]
		for _, s := range spans {
			if s.TraceID == t {
				kept = append(kept, s)
			}
		}
		spans = kept
	}
	if q.Get("slow") == "1" {
		kept := spans[:0]
		for _, s := range spans {
			if s.Slow {
				kept = append(kept, s)
			}
		}
		spans = kept
	}
	if ls := q.Get("limit"); ls != "" {
		n, err := strconv.Atoi(ls)
		if err != nil || n < 0 {
			http.Error(w, fmt.Sprintf("bad limit %q", ls), http.StatusBadRequest)
			return
		}
		if n < len(spans) {
			spans = spans[len(spans)-n:]
		}
	}
	w.Header().Set("Content-Type", "application/jsonl")
	w.Header().Set("X-Span-Recorded", strconv.FormatUint(tr.Recorded(), 10))
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return
		}
	}
}

// Register exports the tracer's self-metrics on reg.
func (tr *Tracer) Register(reg *obs.Registry) {
	reg.CounterFunc("rap_span_started_total", "Spans started (before any sampling decision), and events kept.",
		func() float64 { return float64(tr.started.Load()) })
	reg.CounterFunc("rap_span_recorded_total", "Spans kept in the span ring (head-sampled, slow-promoted, or forced).",
		func() float64 { return float64(tr.recorded.Load()) })
	reg.CounterFunc("rap_span_slow_total", "Spans promoted for reaching the slow-op threshold.",
		func() float64 { return float64(tr.slow.Load()) })
	reg.CounterFunc("rap_span_forced_total", "Unsampled spans recorded because the force hook (alerts firing) held.",
		func() float64 { return float64(tr.forced.Load()) })
	reg.CounterFunc("rap_span_evicted_total", "Recorded spans the ring overwrote before any export read them.",
		func() float64 { return float64(tr.Evicted()) })
	reg.GaugeFunc("rap_span_sample_rate", "Configured head sampling rate: 1 in this many root spans is kept.",
		func() float64 { return float64(tr.opt.SampleRate) })
}

// Command benchmark is the repository's end-to-end benchmark. It runs one
// named workload against the system for a fixed time, checks every answer
// it gets, and prints every metric by name with its unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics of the workload;
// with -trace 1 a separate in-process traced run times each layer of the
// pipeline and reports the per-layer metrics instead. Lines before the
// last one are diagnostics: host facts, sample counts, failures.
//
// Usage (normally through run.sh, which builds rapd first):
//
//	rapbenchmark -rapd <rapd binary> -work <scratch dir> \
//	    -workload daemon-file|daemon-serve|library-zipf \
//	    -seed <n> -seconds <s> -trace 0|1
//
// See README.md for the workloads, the metrics and what each per-layer
// metric should move.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// sizes are the input sizes of one run. The smoke test shrinks them.
type sizes struct {
	fileEvents  int           // events in the daemon-file trace
	serveRate   float64       // daemon-serve stdin offer, events/s
	fileQueries float64       // /v1 requests/s watching daemon-file
	serveQuery  float64       // /v1 requests/s beside daemon-serve's ingest
	zipfPoints  int           // points in the library-zipf stream
	probes      int           // bare daemon-serve start-ups timed for setup_s
	tracedServe time.Duration // daemon-serve session of the traced run
	reps        int           // repetitions of each traced-run timing
}

var defaultSizes = sizes{
	fileEvents:  1 << 20,
	serveRate:   160_000,
	fileQueries: 200,
	serveQuery:  500,
	zipfPoints:  1 << 22,
	probes:      30,
	tracedServe: 4 * time.Second,
	reps:        3,
}

type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	rapd     string // rapd binary
	work     string // scratch directory, removed at exit
	sizes
}

var workloads = map[string]func(config, *tally) error{
	"daemon-file":  runDaemonFile,
	"daemon-serve": runDaemonServe,
	"library-zipf": runLibraryZipf,
}

func main() {
	var c config
	var seconds int
	var traced int
	flag.StringVar(&c.workload, "workload", "", "workload: daemon-file, daemon-serve or library-zipf")
	flag.Uint64Var(&c.seed, "seed", 1, "seed for every generated input")
	flag.IntVar(&seconds, "seconds", 20, "measured time of the run")
	flag.IntVar(&traced, "trace", 0, "1: run the traced per-layer run instead of the end-to-end run")
	flag.StringVar(&c.rapd, "rapd", "", "rapd binary built from the same tree")
	flag.StringVar(&c.work, "work", "", "scratch directory for traces and checkpoints")
	flag.Parse()
	c.seconds = time.Duration(seconds) * time.Second
	c.sizes = defaultSizes

	run, ok := workloads[c.workload]
	switch {
	case !ok:
		fail("unknown workload %q", c.workload)
	case c.rapd == "" || c.work == "":
		fail("-rapd and -work are required")
	case seconds < 1:
		fail("-seconds must be at least 1")
	case traced != 0 && traced != 1:
		fail("-trace must be 0 or 1")
	}
	res, err := execute(c, run, traced == 1)
	if err != nil {
		fail("%v", err)
	}
	printResult(os.Stdout, res)
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(1)
}

// execute runs one workload (or the traced run) in a fresh scratch
// directory under c.work and returns its checked result.
func execute(c config, run func(config, *tally) error, traced bool) (*tally, error) {
	if err := os.MkdirAll(c.work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(c.work, c.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	c.work = dir
	if abs, err := filepath.Abs(c.rapd); err == nil {
		c.rapd = abs
	}
	t := newTally()
	t.note("host nproc=%d gomaxprocs=%d go=%s cpu=%q", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
	t.note("run workload=%s seed=%d seconds=%.0f trace=%v", c.workload, c.seed, c.seconds.Seconds(), traced)
	if traced {
		err = runTraced(c, t)
	} else {
		err = run(c, t)
	}
	if err != nil {
		return nil, err
	}
	if t.attempted > 0 {
		t.note("fail_frac=%.6g (%d of %d operations failed)", float64(t.failed)/float64(t.attempted), t.failed, t.attempted)
	}
	return t, nil
}

// cpuModel is the host CPU's model name, for the host facts line.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// tally collects one run's metrics, diagnostics and checked operations.
type tally struct {
	attempted int
	failed    int
	metrics   map[string]metric
	notes     []string
}

func newTally() *tally { return &tally{metrics: map[string]metric{}} }

// check counts one checked operation; a false ok is a failure, and the
// first few failures are kept as diagnostics.
func (t *tally) check(ok bool, format string, args ...any) {
	t.attempted++
	if ok {
		return
	}
	t.failed++
	if t.failed <= 10 {
		t.note("FAIL "+format, args...)
	}
}

func (t *tally) set(name, unit string, v float64) { t.metrics[name] = metric{v, unit} }

func (t *tally) note(format string, args ...any) {
	t.notes = append(t.notes, fmt.Sprintf(format, args...))
}

func printResult(w *os.File, t *tally) {
	for _, n := range t.notes {
		fmt.Fprintln(w, "# "+n)
	}
	names := make([]string, 0, len(t.metrics))
	for n := range t.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "# %-34s %14.6g %s\n", n, t.metrics[n].Value, t.metrics[n].Unit)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{t.failed == 0 && t.attempted > 0, t.attempted, t.failed, t.metrics})
	if err != nil {
		fail("encoding result: %v", err)
	}
	fmt.Fprintln(w, string(out))
}

// Command perfbench is parsge's benchmark: three workloads, each run
// end to end with tracing off or layer by layer with tracing on, every
// answer checked against a reference count computed outside the timed
// region.
//
//	bash perfbench/run.sh --workload solve-dense --seed 7 --seconds 20 --trace 0
//
// The last line of standard output is the result:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// Lines before it carry the host facts and the per-phase accounting.
// The exit code is non-zero on a wrong count or a setup error. See
// README.md for the workloads and metrics.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"sync"
)

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

// config sizes one run. defaults gives the committed sizes; the tests
// shrink them.
type config struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	Spans    string // where the traced run writes its spans ("" = nowhere)

	Scale     float64 // collection scale
	Setups    int     // set-up repetitions; setup_s is their median
	OpenRate  float64 // serve-*: open-loop offered rate, requests/s
	OpenShare float64 // serve-hot-mutating: share of the run spent in the open loop
	ListLen   int     // serve-hot-mutating: fixed request list length
	Passes    int     // serve-hot-mutating: closed-loop passes over the list, each followed by an open-loop segment
	Pool      int     // serve-hot-mutating: patterns per target
	Patterns  int     // collection pattern count; 0 = the paper's, scaled
}

func defaults(workload string) (config, error) {
	c := config{Workload: workload, Setups: 5, Seconds: 20}
	switch workload {
	case "solve-dense":
		c.Scale = 0.03
	case "serve-cold-sparse":
		// At 0.5 the largest target passes the 2^14-node dense-row
		// limit, so the slice-kernel fallback is on the path too.
		c.Scale, c.OpenRate = 0.5, 400
		c.Setups = 3 // each takes seconds
	case "serve-hot-mutating":
		c.Scale, c.OpenRate, c.OpenShare, c.ListLen, c.Passes, c.Pool = 0.03, 2000, 0.6, 4000, 16, 8
		c.Setups = 15 // its set-up takes a tenth of a second: more repeats steady the median
	default:
		return c, fmt.Errorf("unknown workload %q (want solve-dense, serve-cold-sparse or serve-hot-mutating)", workload)
	}
	return c, nil
}

// report is the result line.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// env is one run's shared state: configuration, the metric tables, the
// phase accounting and the correctness verdict.
type env struct {
	cfg    config
	nproc  int
	tr     *tracer // set only while a traced phase runs
	e2e    *metrics
	layer  *metrics
	phases []*tally
	out    io.Writer

	cal    *calibKernel
	calibs []float64 // the run's calibrations, CPU ms

	mu     sync.Mutex // guards the wrong-answer record, written by request workers
	wrong  []string   // the first few wrong answers, for the error message
	nWrong int
}

func (e *env) phase(name string) *tally {
	t := &tally{Phase: name}
	e.phases = append(e.phases, t)
	return t
}

// wrongf records a wrong answer; any wrong answer fails the run.
func (e *env) wrongf(format string, args ...any) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.nWrong++
	if len(e.wrong) < 5 {
		e.wrong = append(e.wrong, fmt.Sprintf(format, args...))
	}
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "solve-dense, serve-cold-sparse or serve-hot-mutating")
	seed := fs.Int64("seed", 1, "workload seed: every generated input derives from it")
	seconds := fs.Float64("seconds", 20, "measured time of one run")
	trace := fs.Int("trace", 0, "1 = the traced per-layer run, 0 = the end-to-end run")
	spans := fs.String("spans", "", "file the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg, err := defaults(*workload)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	cfg.Seed, cfg.Seconds, cfg.Trace, cfg.Spans = *seed, *seconds, *trace == 1, *spans
	rep, err := runConfig(ctx, cfg, stdout)
	if rep.Metrics != nil {
		line, _ := json.Marshal(rep)
		fmt.Fprintln(stdout, string(line))
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// runConfig runs one workload and returns its result line. It fails on
// a setup error or an unmeasured metric (no result line), and on any
// wrong answer (a result line with "correct": false).
func runConfig(ctx context.Context, cfg config, stdout io.Writer) (report, error) {
	e := &env{cfg: cfg, nproc: runtime.NumCPU(), e2e: newMetrics(endToEnd), layer: newMetrics(perLayer), out: stdout}
	e.info(map[string]any{"host": hostFacts(cfg)})
	cal, err := newCalibKernel()
	if err != nil {
		return report{}, err
	}
	defer cal.close()
	e.cal = cal

	switch cfg.Workload {
	case "solve-dense":
		err = runDense(ctx, e)
	case "serve-cold-sparse":
		err = runCold(ctx, e)
	case "serve-hot-mutating":
		err = runHot(ctx, e)
	default:
		err = fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	if err != nil {
		return report{}, err
	}
	return e.finish()
}

// finish prints the per-phase accounting and assembles the result line.
// Cost-model refusals (429) are failures in the accounting but not in
// the result's "failed" field: they are the server's deliberate answer,
// measured by served_frac.
func (e *env) finish() (report, error) {
	rep := report{Correct: e.nWrong == 0}
	e.info(map[string]any{"calibration": map[string]any{
		"runs": len(e.calibs), "median_ms": median(e.calibs), "reference_ms": calibRefMS,
		"speed": e.speed(),
	}})
	for _, t := range e.phases {
		e.info(t)
		rep.Attempted += t.Sent
		rep.Failed += t.Failed - t.Refused429
	}
	m := e.e2e
	if e.cfg.Trace {
		m = e.layer
	}
	if e.nWrong > 0 {
		rep.Metrics = m.values
		return rep, fmt.Errorf("%d wrong answers, first: %s", e.nWrong, strings.Join(e.wrong, "; "))
	}
	if err := m.complete(); err != nil {
		return report{}, err
	}
	rep.Metrics = m.values
	return rep, nil
}

// info prints one JSON line ahead of the result line.
func (e *env) info(v any) {
	line, _ := json.Marshal(v)
	fmt.Fprintln(e.out, string(line))
}

// hostFacts are the machine and run facts every output starts with.
func hostFacts(cfg config) map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
		"workload":   cfg.Workload,
		"scale":      cfg.Scale,
		"seed":       cfg.Seed,
		"seconds":    cfg.Seconds,
		"trace":      cfg.Trace,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// repeatSetup runs setup e.cfg.Setups times, each from a collected heap
// with the previous result closed, and returns the last result with the
// median set-up time: the process CPU seconds one set-up takes (see
// cpuMS), before scaling to the reference host (see speed).
func repeatSetup[T any](e *env, setup func() (T, error), closeFn func(T)) (T, float64, error) {
	var last T
	var times []float64
	for i := 0; i < max(1, e.cfg.Setups); i++ {
		if i > 0 {
			closeFn(last)
			var none T
			last = none // collectable by the settle below
		}
		settle()
		start := cpuMS()
		v, err := setup()
		if err != nil {
			return v, 0, err
		}
		times = append(times, (cpuMS()-start)/1000)
		e.calibrate()
		last = v
	}
	return last, median(times), nil
}

// calibrate times the calibration kernel once more (see calib.go).
// Calls spread over the run sample the host's speed throughout it.
func (e *env) calibrate() {
	e.calibs = append(e.calibs, e.cal.measure())
}

// speed is the factor that scales the run's CPU times to the reference
// host: calibRefMS over the median of the run's calibrations. One
// factor for the whole run, because the host's speed drifts over tens
// of seconds and minutes, which the median of many calibrations
// follows, while from one half second to the next a single calibration
// moves mostly by its own noise.
func (e *env) speed() float64 {
	return ratio(calibRefMS, median(e.calibs))
}

// chunkedCPU runs do over [0, n) in chunks of at most size, calibrating
// after each, and returns the CPU ms the chunks used.
func (e *env) chunkedCPU(n, size int, do func(from, to int)) float64 {
	var total float64
	for from := 0; from < n; from += size {
		cpu := cpuMS()
		do(from, min(n, from+size))
		total += cpuMS() - cpu
		e.calibrate()
	}
	return total
}

// errTimedOut marks a reference run that hit its budget: the workload
// is misconfigured, since every reference must be exact.
var errTimedOut = errors.New("reference run timed out")

package main

import (
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile for it to
// be reported at all.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs (0 < q < 1) and
// whether at least minBeyond samples lie strictly beyond its rank.
func percentile(xs []float64, q float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	idx = max(0, min(idx, len(s)-1))
	return s[idx], len(s)-1-idx >= minBeyond
}

// median is the middle value (the mean of the two middle values for an
// even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuMS is the CPU time the process has used so far, user plus system
// over all its threads, in ms. On a virtual machine whose kernel accounts
// steal time, as Linux under KVM does, time the host gives to other
// tenants is not in it, so the end-to-end metrics built on it hold still
// while the wall clock of a shared host does not.
func cpuMS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("perfbench: getrusage: %v", err))
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / float64(time.Millisecond)
}

// ratio is a/b, or 0 when b is 0 (a layer off the workload's path).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// settle collects garbage before a timed phase, so no phase starts in
// the middle of a collection the previous one left behind.
func settle() { runtime.GC() }

// heapMB is the live heap after full collections: the second one also
// frees what the first only moved to the sync.Pool victim caches.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return float64(st.HeapAlloc) / (1 << 20)
}

// outcome classifies one operation.
type outcome int

const (
	outOK        outcome = iota
	outRefused           // 429: shed by the cost model
	outOverload          // 503: admission queue full or draining
	outQueueWait         // 504: admission queue wait bound
	outError             // transport error, other status, truncated or malformed reply
	outWrong             // a reply whose count disagrees with the reference
)

// statusOutcome maps a non-2xx HTTP status to its outcome.
func statusOutcome(code int) outcome {
	switch code {
	case http.StatusTooManyRequests:
		return outRefused
	case http.StatusServiceUnavailable:
		return outOverload
	case http.StatusGatewayTimeout:
		return outQueueWait
	default:
		return outError
	}
}

// tally is the per-phase accounting printed before the result line.
// Every non-OK outcome counts as failed; the result line's "failed"
// field counts all of them except cost-model refusals, which the
// served_frac metric reports instead (see README.md).
type tally struct {
	Phase       string  `json:"phase"`
	Sent        int64   `json:"sent"`
	OK          int64   `json:"ok"`
	Failed      int64   `json:"failed"`
	Refused429  int64   `json:"refused_429"`
	Overload503 int64   `json:"overload_503"`
	Timeout504  int64   `json:"timeout_504"`
	Errors      int64   `json:"errors"`
	Wrong       int64   `json:"wrong"`
	Seconds     float64 `json:"seconds"`
	GenLagP99MS float64 `json:"gen_lag_p99_ms,omitempty"`
	// The phase's wall-clock figures, for the record: too unsteady on a
	// small shared machine to gate on (see README.md).
	QPS float64 `json:"qps,omitempty"` // closed-loop phases: successful operations per wall second
	// PassOpCPUMS is each closed-loop pass's CPU ms per successful
	// operation, in pass order, before scaling: op_cpu_ms is their median
	// times the run's speed.
	PassOpCPUMS []float64 `json:"pass_op_cpu_ms,omitempty"`
	LatP50MS    float64   `json:"lat_p50_ms,omitempty"`
	LatP90MS    float64   `json:"lat_p90_ms,omitempty"`
	LatP99MS    float64   `json:"lat_p99_ms,omitempty"`
	UpdateP90MS float64   `json:"update_p90_ms,omitempty"`
	UpdateP99MS float64   `json:"update_p99_ms,omitempty"`
}

// tails records the phase's query median and query and update tails
// where they have ten samples beyond them.
func (t *tally) tails(lats, updates []float64) {
	t.LatP50MS = reported(lats, 0.5)
	t.LatP90MS = reported(lats, 0.9)
	t.LatP99MS = reported(lats, 0.99)
	t.UpdateP90MS = reported(updates, 0.9)
	t.UpdateP99MS = reported(updates, 0.99)
}

// reported is the q-quantile of xs when at least minBeyond samples lie
// beyond it, and 0 (left out of the phase line) otherwise.
func reported(xs []float64, q float64) float64 {
	if v, ok := percentile(xs, q); ok {
		return v
	}
	return 0
}

func (t *tally) add(o outcome) {
	t.Sent++
	switch o {
	case outOK:
		t.OK++
		return
	case outRefused:
		t.Refused429++
	case outOverload:
		t.Overload503++
	case outQueueWait:
		t.Timeout504++
	case outError:
		t.Errors++
	case outWrong:
		t.Wrong++
	}
	t.Failed++
}

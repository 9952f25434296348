// Command fmbench is the fmeter end-to-end benchmark: one program that
// drives the pipeline from the simulated kernel's counters to the HTTP
// answer, under two workloads.
//
//	query-sealed  read-only serving over a large sealed, saved and
//	              cold-opened (mmap) snapshot: /v1/topk + /v1/classify
//	live-ingest   simulated hosts collect intervals through debugfs and
//	              POST them to /v1/ingest at a fixed rate while /v1/topk
//	              queries arrive open loop against a small live DB
//
// Inputs are generated from -seed and handed to the system; generation
// is excluded from every timing. With -trace 0 the last line of standard
// output is the end-to-end result; with -trace 1 the run also records
// spans around the calls into each layer and reports per-layer metrics,
// a self-time breakdown and the tracing overhead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// ops counts operations attempted and failed; every failure also
// records why, so a wrong answer is never silent.
type ops struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	reasons   map[string]int64
}

func (o *ops) ok() {
	o.mu.Lock()
	o.attempted++
	o.mu.Unlock()
}

func (o *ops) fail(reason string) {
	o.mu.Lock()
	o.attempted++
	o.mu.Unlock()
	o.wrong(reason)
}

// wrong turns an operation already counted as attempted into a failure:
// a served answer the oracle rejected after the fact.
func (o *ops) wrong(reason string) {
	o.mu.Lock()
	o.failed++
	if o.reasons == nil {
		o.reasons = map[string]int64{}
	}
	o.reasons[reason]++
	o.mu.Unlock()
}

// endToEnd names the metrics of untraced runs, which every workload
// reports for its own operation (see putLatency); traced runs report the
// per-layer metrics only.
var endToEnd = map[string]bool{
	"setup_s": true, "heap_mb": true, "latency_p50_ms": true, "latency_p90_ms": true, "accuracy": true,
}

const (
	// Set-up is repeated at least setupReps times and for at least
	// setupSpan, so setup_s is a median over samples spread across the
	// seconds-long stretches in which the shared host runs memory-bound
	// code at one speed or another (a 40 ms tf-idf fit read 0.031 or
	// 0.045 s depending on the stretch).
	setupReps = 9
	setupSpan = 2 * time.Second
	// latencyWindows is how many consecutive windows a measured phase is
	// split into: latency quantiles and the heap peak are the median over
	// windows of each window's figure, so a burst of CPU stolen from the
	// virtual machine moves one window, not the result.
	latencyWindows = 15
	// tailQ is the tail quantile reported: with 100-200 samples per
	// window, p90 is the highest one with ten samples beyond it.
	tailQ = 0.90
)

// run is the state shared by a workload's phases.
type run struct {
	seed    int64
	seconds float64
	trace   bool
	workdir string
	ops     ops
	out     map[string]metric
	tr      *tracer // nil unless tracing
}

func (r *run) put(name, unit string, v float64) { r.out[name] = metric{Value: v, Unit: unit} }

// share is the given fraction of the run's measured seconds.
func (r *run) share(f float64) time.Duration {
	return time.Duration(f * r.seconds * float64(time.Second))
}

func main() {
	workload := flag.String("workload", "", "query-sealed | live-ingest")
	seed := flag.Int64("seed", 1, "input generation seed")
	seconds := flag.Float64("seconds", 20, "measured seconds per run")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	workdir := flag.String("workdir", ".bench_build", "scratch directory for snapshots and span dumps")
	flag.Parse()
	fns := map[string]func(*run) error{
		"query-sealed": runQuerySealed,
		"live-ingest":  runLiveIngest,
	}
	fn, ok := fns[*workload]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "fmbench: usage: -workload query-sealed|live-ingest -seed N -seconds S -trace 0|1\n")
		os.Exit(2)
	}
	r := &run{
		seed:    *seed,
		seconds: *seconds,
		trace:   *traceFlag == 1,
		workdir: filepath.Join(*workdir, fmt.Sprintf("run-%s-%d-%d", *workload, *seed, os.Getpid())),
		out:     map[string]metric{},
	}
	if err := os.MkdirAll(r.workdir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "fmbench: %v\n", err)
		os.Exit(1)
	}
	defer os.RemoveAll(r.workdir)
	if r.trace {
		r.tr = newTracer()
	}
	if err := fn(r); err != nil {
		fmt.Fprintf(os.Stderr, "fmbench: %s: %v\n", *workload, err)
		os.RemoveAll(r.workdir)
		os.Exit(1)
	}
	if r.tr != nil {
		path := filepath.Join(*workdir, fmt.Sprintf("spans-%s-%d.jsonl", *workload, *seed))
		if err := r.tr.dump(path); err != nil {
			fmt.Fprintf(os.Stderr, "fmbench: writing spans: %v\n", err)
		} else {
			fmt.Fprintf(os.Stderr, "spans written to %s\n", path)
		}
	}
	for name := range r.out {
		if endToEnd[name] == r.trace {
			delete(r.out, name)
		}
	}
	for reason, n := range r.ops.reasons {
		fmt.Fprintf(os.Stderr, "FAILED %d× %s\n", n, reason)
	}
	res := result{
		Correct:   r.ops.failed == 0 && r.ops.attempted > 0,
		Attempted: r.ops.attempted,
		Failed:    r.ops.failed,
		Metrics:   r.out,
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fmbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// --- statistics ---

// quantile returns the q-quantile of xs (sorted in place) by linear
// interpolation between closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// putLatency reports the latencies of the workload's operation, in ms
// and in the order the operations were due, as latency_p50_ms and
// latency_p90_ms: each is the median over windows consecutive windows
// of the window's quantile.
func (r *run) putLatency(xs []float64, windows int) {
	r.put("latency_p50_ms", "ms", windowedQuantile(xs, 0.5, windows))
	r.put("latency_p90_ms", "ms", windowedQuantile(xs, tailQ, windows))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// timeSetup runs setup at least reps times and for at least setupSpan,
// and returns the median seconds plus the product of the last
// repetition; every earlier product is released with drop before the
// next repetition starts.
func timeSetup[T any](reps int, setup func() (T, error), drop func(T)) (float64, T, error) {
	var secs []float64
	var v T
	begin := time.Now()
	for i := 0; i < reps || time.Since(begin) < setupSpan; i++ {
		if i > 0 {
			drop(v)
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		v, err = setup()
		if err != nil {
			return 0, v, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	fmt.Fprintf(os.Stderr, "%d set-ups, median %.4f s\n", len(secs), median(append([]float64(nil), secs...)))
	return median(secs), v, nil
}

// --- Go runtime counters ---

var runtimeSamples = []string{
	"/gc/heap/live:bytes",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() map[string]float64 {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	out := make(map[string]float64, len(s))
	for _, x := range s {
		switch x.Value.Kind() {
		case metrics.KindUint64:
			out[x.Name] = float64(x.Value.Uint64())
		case metrics.KindFloat64:
			out[x.Name] = x.Value.Float64()
		}
	}
	return out
}

// phase brackets a measured phase: it samples the live heap (bytes
// marked live by the last GC cycle) every 5 ms and takes Go runtime and
// process CPU deltas at the end.
type phase struct {
	start  time.Time
	before map[string]float64
	cpu0   float64
	stop   chan struct{}
	done   chan struct{}
	heap   []heapSample // one per change of the live heap
}

type heapSample struct{ at, bytes float64 }

func startPhase() *phase {
	runtime.GC() // start from what is live now, not at the last cycle
	p := &phase{start: time.Now(), before: readRuntime(), cpu0: processCPU(), stop: make(chan struct{}), done: make(chan struct{})}
	p.heap = []heapSample{{0, p.before["/gc/heap/live:bytes"]}}
	go func() {
		defer close(p.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				metrics.Read(s)
				if v := float64(s[0].Value.Uint64()); v != p.heap[len(p.heap)-1].bytes {
					p.heap = append(p.heap, heapSample{time.Since(p.start).Seconds(), v})
				}
			}
		}
	}()
	return p
}

// heapPeak is the median over latencyWindows equal windows of the phase
// of each window's peak live heap: one peak depends on where the few GC
// cycles happen to land.
func (p *phase) heapPeak(wall float64) float64 {
	var peaks []float64
	for w := 0; w < latencyWindows; w++ {
		lo, hi := wall*float64(w)/latencyWindows, wall*float64(w+1)/latencyWindows
		peak := 0.0
		for i, s := range p.heap {
			inForce := s.at <= lo && (i+1 == len(p.heap) || p.heap[i+1].at > lo)
			if inForce || (s.at > lo && s.at <= hi) {
				peak = math.Max(peak, s.bytes)
			}
		}
		peaks = append(peaks, peak)
	}
	return median(peaks)
}

// phaseStats are the deltas of one measured phase.
type phaseStats struct {
	peakHeap  float64 // bytes, see heapPeak
	allocs    float64 // bytes
	gcCycles  float64
	gcCPUFrac float64
	cpuUtil   float64 // process CPU / (wall × GOMAXPROCS)
}

func (p *phase) end() phaseStats {
	close(p.stop)
	<-p.done
	after := readRuntime()
	wall := time.Since(p.start).Seconds()
	st := phaseStats{
		peakHeap: p.heapPeak(wall),
		allocs:   after["/gc/heap/allocs:bytes"] - p.before["/gc/heap/allocs:bytes"],
		gcCycles: after["/gc/cycles/total:gc-cycles"] - p.before["/gc/cycles/total:gc-cycles"],
		cpuUtil:  (processCPU() - p.cpu0) / (wall * float64(runtime.GOMAXPROCS(0))),
	}
	if tot := after["/cpu/classes/total:cpu-seconds"] - p.before["/cpu/classes/total:cpu-seconds"]; tot > 0 {
		st.gcCPUFrac = (after["/cpu/classes/gc/total:cpu-seconds"] - p.before["/cpu/classes/gc/total:cpu-seconds"]) / tot
	}
	return st
}

// putRuntime reports the Go runtime layer of a traced phase and how
// busy it kept the CPUs.
func (r *run) putRuntime(st phaseStats, opsDone int64) {
	r.put("go.gc_cpu_frac", "ratio", st.gcCPUFrac)
	r.put("go.gc_cycles", "count", st.gcCycles)
	r.put("parallel.cpu_util", "ratio", st.cpuUtil)
	if opsDone > 0 {
		r.put("go.alloc_mb_per_op", "MB", st.allocs/1e6/float64(opsDone))
	}
}

// processCPU is user+system CPU seconds of this process.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/microslicedcore/microsliced/internal/check"
	"github.com/microslicedcore/microsliced/internal/experiment"
	"github.com/microslicedcore/microsliced/internal/simtime"
)

// outcome is one scenario of a timed loop.
type outcome struct {
	round, idx int
	start, end time.Time
	events     uint64
	digest     [32]byte
	err        error
}

// roundStat is one round's host cost.
type roundStat struct {
	wall      time.Duration
	simNs     int64
	cpu       time.Duration
	peakRSSMB float64
}

func (r roundStat) simS() float64 { return float64(r.simNs) / 1e9 }

// simRate is the round's simulated seconds per host wall second.
func (r roundStat) simRate() float64 { return r.simS() / r.wall.Seconds() }

// loop is one closed-loop pass over a workload's rounds.
type loop struct {
	rounds   []roundStat
	outcomes []outcome
	census   *census
	wall     time.Duration
	simNs    int64
	rt       runtimeDelta
}

// runLoop runs rounds 0, 1, 2, … back to back until o.seconds of host
// time have passed and the census rounds are done. With a tracer it
// records a span around the loop, each scenario and each post-check.
func runLoop(w *workload, o options, tr *tracer) *loop {
	l := &loop{census: newCensus()}
	rt0 := readRuntime()
	t0 := time.Now()
	var loopID int
	if tr != nil {
		loopID = tr.reserve()
	}
	for r := 0; r < w.census || time.Since(t0) < o.seconds; r++ {
		l.runRound(w, o, r, tr, loopID)
	}
	l.wall = time.Since(t0)
	l.rt = readRuntime().sub(rt0)
	if tr != nil {
		tr.add(span{Name: "workload:" + w.name, ID: loopID, Start: t0, End: t0.Add(l.wall)})
	}
	return l
}

func (l *loop) runRound(w *workload, o options, r int, tr *tracer, parent int) {
	setups := w.round(o.seed, r, o.dur)
	n := len(setups)
	ros := make([]readout, n)
	roErrs := make([]error, n)
	checkStart := make([]time.Time, n)
	checkEnd := make([]time.Time, n)
	for j := range setups {
		setups[j].PostCheck = func(pr *experiment.PostRun) error {
			checkStart[j] = time.Now()
			ros[j], roErrs[j] = readOut(pr)
			checkEnd[j] = time.Now()
			return nil
		}
	}
	results := make([]*experiment.Result, n)
	errs := make([]error, n)
	starts := make([]time.Time, n)
	ends := make([]time.Time, n)
	lanes := make([]int, n)
	resetPeakRSS()
	cpu0 := cpuTime()
	t0 := time.Now()
	if w.workers <= 1 {
		for j := range setups {
			starts[j] = time.Now()
			results[j], errs[j] = experiment.Run(setups[j])
			ends[j] = time.Now()
		}
	} else {
		for j, jr := range experiment.RunAllSettled(setups) {
			results[j], errs[j] = jr.Result, jr.Err
		}
		// A job's post-check is the last thing it does; a job that failed
		// before it ends with the grid.
		gridEnd := time.Now()
		for j := range ends {
			if ends[j] = checkEnd[j]; ends[j].IsZero() {
				ends[j] = gridEnd
			}
		}
		starts, lanes = jobStarts(t0, ends, w.workers)
	}
	wall := time.Since(t0)
	var simNs int64
	for _, s := range setups {
		simNs += int64(s.Duration)
	}
	l.rounds = append(l.rounds, roundStat{
		wall: wall, simNs: simNs, cpu: cpuTime() - cpu0, peakRSSMB: peakRSSMB(),
	})
	l.simNs += simNs
	for j := range setups {
		oc := outcome{round: r, idx: j, start: starts[j], end: ends[j]}
		oc.err = checkScenario(results[j], errs[j], roErrs[j])
		if oc.err == nil {
			oc.events = ros[j].Events
			oc.digest = digestOf(results[j], ros[j])
			if r < w.census {
				l.census.add(results[j], ros[j], oc.digest)
			}
		}
		l.outcomes = append(l.outcomes, oc)
		if tr != nil {
			id := tr.reserve()
			tr.add(span{Name: "scenario", ID: id, Parent: parent, Lane: lanes[j], Start: starts[j], End: ends[j]})
			if !checkStart[j].IsZero() {
				tr.add(span{Name: "post-check", ID: tr.reserve(), Parent: id, Lane: lanes[j], Start: checkStart[j], End: checkEnd[j]})
			}
		}
	}
}

// digests returns the digest of every scenario that passed its checks, by
// round and index.
func (l *loop) digests() map[[2]int][32]byte {
	out := map[[2]int][32]byte{}
	for _, oc := range l.outcomes {
		if oc.err == nil {
			out[[2]int{oc.round, oc.idx}] = oc.digest
		}
	}
	return out
}

// jobStarts reconstructs when each job of a RunAll grid started, and on
// which worker lane. RunAll hands jobs out in index order, each to the
// first worker that frees up, so with W workers jobs 0..W-1 start at the
// grid start and job i ≥ W starts when the (i-W+1)-th job finishes.
func jobStarts(t0 time.Time, ends []time.Time, workers int) ([]time.Time, []int) {
	n := len(ends)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return ends[order[a]].Before(ends[order[b]]) })
	starts := make([]time.Time, n)
	lanes := make([]int, n)
	for i := 0; i < n; i++ {
		if i < workers {
			starts[i], lanes[i] = t0, i
			continue
		}
		prev := order[i-workers]
		starts[i], lanes[i] = ends[prev], lanes[prev]
		if starts[i].After(ends[i]) {
			starts[i] = ends[i]
		}
	}
	return starts, lanes
}

// verify re-runs the census rounds serially through experiment.Run with
// the conservation laws as the post-run check, and requires each
// scenario's digest to equal the timed run's. For a RunAll workload this
// also proves the parallel grid equals the serial one. It returns the
// failing scenarios by round and index.
func verify(w *workload, o options, timed *loop) map[[2]int]error {
	digests := timed.digests()
	failed := map[[2]int]error{}
	for r := 0; r < w.census; r++ {
		for j, s := range w.round(o.seed, r, o.dur) {
			var ro readout
			var roErr error
			s.PostCheck = func(pr *experiment.PostRun) error {
				if o.perturb != nil {
					o.perturb(pr)
				}
				ro, roErr = readOut(pr)
				return check.Conservation(pr)
			}
			res, err := experiment.Run(s)
			key := [2]int{r, j}
			if err = checkScenario(res, err, roErr); err != nil {
				failed[key] = fmt.Errorf("verify: %w", err)
			} else if want, ok := digests[key]; ok && digestOf(res, ro) != want {
				failed[key] = fmt.Errorf("verify: digest differs from the timed run")
			}
		}
	}
	return failed
}

// traced is a traced loop with its CPU and allocation attribution.
type traced struct {
	*loop
	tracer       *tracer
	cpuProfile   []byte // gzipped pprof
	cpuByLayer   map[string]int64
	allocByLayer map[string]float64 // bytes
}

// runTraced runs the workload's loop again under the CPU profiler and the
// allocation profile, with spans around the benchmark's calls.
func runTraced(w *workload, o options) (*traced, error) {
	tr := newTracer()
	runtime.MemProfileRate = allocProfileRate
	before := takeAllocSnapshot()
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	l := runLoop(w, o, tr)
	pprof.StopCPUProfile()
	after := takeAllocSnapshot()
	cpu, err := cpuByLayer(buf.Bytes())
	if err != nil {
		return nil, err
	}
	return &traced{loop: l, tracer: tr, cpuProfile: buf.Bytes(), cpuByLayer: cpu, allocByLayer: allocByLayer(before, after)}, nil
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS resets the kernel's peak resident set mark of this
// process, so the next peakRSSMB covers only what follows.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // without it, peakRSSMB reports the process's peak
}

// peakRSSMB returns the process's peak resident set size in MB since the
// last resetPeakRSS.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64); err == nil {
					return kb * 1024 / 1e6
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// runtimeDelta is the Go runtime's own accounting over an interval.
type runtimeDelta struct {
	allocBytes uint64
	gcCycles   uint64
	gcCPUs     float64
	totalCPUs  float64
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeDelta {
	s := make([]rtmetrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	rtmetrics.Read(s)
	return runtimeDelta{
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		gcCPUs:     s[2].Value.Float64(),
		totalCPUs:  s[3].Value.Float64(),
	}
}

func (a runtimeDelta) sub(b runtimeDelta) runtimeDelta {
	return runtimeDelta{
		allocBytes: a.allocBytes - b.allocBytes,
		gcCycles:   a.gcCycles - b.gcCycles,
		gcCPUs:     a.gcCPUs - b.gcCPUs,
		totalCPUs:  a.totalCPUs - b.totalCPUs,
	}
}

// measureSetup times building the workload's first round of simulated
// worlds — hypervisor, guest kernels, symbol tables, workloads — by
// running each of its scenarios for one simulated nanosecond, reps times,
// and returns each repetition's time in seconds. Each repetition starts
// from a collected heap, so the garbage of the one before does not land in
// it.
func measureSetup(w *workload, o options, reps int) ([]float64, error) {
	times := make([]float64, reps)
	for i := range times {
		runtime.GC()
		t0 := time.Now()
		for _, s := range w.round(o.seed, 0, o.dur) {
			s.Duration = simtime.Duration(1)
			if _, err := experiment.Run(s); err != nil {
				return nil, fmt.Errorf("setup: %w", err)
			}
		}
		times[i] = time.Since(t0).Seconds()
	}
	return times, nil
}

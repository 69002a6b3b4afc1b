// Command simbench measures the simulator's own speed, end to end and
// layer by layer, on three workloads that mirror the paper's critical
// guest services: spinlock holders (lock-sweep), TLB-shootdown IPIs
// (tlb-baseline) and I/O interrupts (serve-observed). See README.md.
//
//	simbench --workload tlb-baseline --seed 1 --seconds 20 --trace 0
//
// It prints one line per metric, with its unit, and ends with one JSON
// object: the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1. All times are host times unless a name says sim.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"github.com/microslicedcore/microsliced/internal/experiment"
	"github.com/microslicedcore/microsliced/internal/simtime"
)

type options struct {
	workload  string
	seed      uint64
	seconds   time.Duration
	trace     bool
	outDir    string
	dur       simtime.Duration // simulated length of one scenario
	setupReps int
	// perturb, when set, tampers with every verification run before its
	// checks; tests use it to prove a corrupted run is counted as failed.
	perturb func(*experiment.PostRun)
}

func main() {
	o := options{dur: scenarioDur, setupReps: 201}
	var secs float64
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: lock-sweep, tlb-baseline or serve-observed")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed; every scenario's VM seeds derive from it")
	flag.Float64Var(&secs, "seconds", 20, "host seconds each measured loop runs")
	flag.IntVar(&trace, "trace", 0, "1 adds a traced run and prints the per-layer metrics")
	flag.StringVar(&o.outDir, "out", ".bench_build/simbench", "directory for the traced run's span trace and CPU profile")
	flag.Parse()
	if flag.NArg() > 0 || (trace != 0 && trace != 1) || secs < 0 {
		flag.Usage()
		os.Exit(2)
	}
	o.seconds = time.Duration(secs * float64(time.Second))
	o.trace = trace == 1
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(1)
	}
}

// metric is one named figure of the report.
type metric struct {
	Name  string
	Unit  string
	Value float64
}

// report is everything one invocation prints.
type report struct {
	Correct   bool
	Attempted int
	Failed    int
	EndToEnd  []metric
	PerLayer  []metric // nil unless traced
}

func run(o options, stdout io.Writer) error {
	w, err := findWorkload(o.workload)
	if err != nil {
		return err
	}
	experiment.SetParallelism(w.workers)
	prov := provenance(w, o)
	fmt.Fprintln(stdout, prov)

	rep, tr, err := measure(w, o, stdout)
	if err != nil {
		return err
	}
	for _, m := range rep.EndToEnd {
		fmt.Fprintf(stdout, "metric %-36s %14.6g %s\n", m.Name, m.Value, m.Unit)
	}
	for _, m := range rep.PerLayer {
		fmt.Fprintf(stdout, "layer  %-36s %14.6g %s\n", m.Name, m.Value, m.Unit)
	}
	if tr != nil {
		for _, st := range tr.tracer.stats() {
			fmt.Fprintf(stdout, "span %-24s n=%-5d total_ms=%.1f self_ms=%.1f\n", st.Name, st.Count, st.TotalMs, st.SelfMs)
		}
		if err := writeTraceFiles(o, w, tr, prov); err != nil {
			return err
		}
	}
	metrics := rep.EndToEnd
	if o.trace {
		metrics = rep.PerLayer
	}
	out := map[string]any{
		"correct": rep.Correct, "attempted": rep.Attempted, "failed": rep.Failed,
		"metrics": metricMap(metrics),
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	return nil
}

func metricMap(ms []metric) map[string]any {
	out := make(map[string]any, len(ms))
	for _, m := range ms {
		out[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	return out
}

// measure runs the set-up timing, the untimed-check verification pass, the
// timed loop and, when tracing, the traced loop, and derives every metric.
func measure(w *workload, o options, stdout io.Writer) (*report, *traced, error) {
	setupTimes, err := measureSetup(w, o, o.setupReps)
	if err != nil {
		return nil, nil, err
	}
	// A traced invocation splits --seconds between its untraced and its
	// traced loop, so it takes as long as an untraced one.
	loopO := o
	if o.trace {
		loopO.seconds = o.seconds / 2
	}
	timed := runLoop(w, loopO, nil)
	failures := map[string]error{}
	note := func(tag string, round, idx int, err error) {
		key := fmt.Sprintf("%s/%d/%d", tag, round, idx)
		if _, seen := failures[key]; !seen {
			failures[key] = err
			fmt.Fprintf(stdout, "FAIL %s round %d scenario %d: %v\n", tag, round, idx, err)
		}
	}
	for _, oc := range timed.outcomes {
		if oc.err != nil {
			note("timed", oc.round, oc.idx, oc.err)
		}
	}
	for key, err := range verify(w, o, timed) {
		note("timed", key[0], key[1], err)
	}
	attempted := len(timed.outcomes)

	var tr *traced
	if o.trace {
		if tr, err = runTraced(w, loopO); err != nil {
			return nil, nil, err
		}
		attempted += len(tr.outcomes)
		untracedDigest := timed.digests()
		for _, oc := range tr.outcomes {
			if oc.err != nil {
				note("traced", oc.round, oc.idx, oc.err)
			} else if want, ok := untracedDigest[[2]int{oc.round, oc.idx}]; ok && oc.digest != want {
				note("traced", oc.round, oc.idx, fmt.Errorf("digest differs from the untraced run"))
			}
		}
	}

	c := timed.census
	fmt.Fprintf(stdout, "digest %s seed=%d census=%d scenarios, %.0f sim-s sha256=%s\n",
		w.name, o.seed, c.Scenarios, c.simSeconds(), c.sum())
	dist := func(name string, xs []float64) summary {
		s := summarize(xs)
		fmt.Fprintf(stdout, "dist %-20s n=%-4d p25=%.6g p50=%.6g p75=%.6g p90=%.6g\n", name, s.N, s.P25, s.P50, s.P75, s.P90)
		return s
	}
	rate := dist("sim_s_per_s", roundValues(timed, roundStat.simRate))
	cpu := dist("cpu_s_per_sim_s", roundValues(timed, func(r roundStat) float64 { return r.cpu.Seconds() / r.simS() }))
	scen := dist("scenario_ms", scenarioMs(timed))
	rss := dist("max_rss_mb", roundValues(timed, func(r roundStat) float64 { return r.peakRSSMB }))
	setup := dist("setup_s", setupTimes)
	fmt.Fprintf(stdout, "metric %-36s %14.6g %s\n", "failed_frac", float64(len(failures))/float64(attempted), "frac")

	rep := &report{
		Correct:   len(failures) == 0,
		Attempted: attempted,
		Failed:    len(failures),
		EndToEnd: []metric{
			{"sim_s_per_s", "sim-s/s", rate.P50},
			{"cpu_s_per_sim_s", "s/sim-s", cpu.P50},
			{"scenario_ms_p50", "ms", scen.P50},
			{"scenario_ms_p90", "ms", scen.P90},
			{"alloc_mb_per_sim_s", "MB/sim-s", float64(timed.rt.allocBytes) / 1e6 / (float64(timed.simNs) / 1e9)},
			{"max_rss_mb", "MB", rss.P50},
			{"setup_s", "s", setup.P50},
		},
	}
	if tr != nil {
		rep.PerLayer = perLayer(w, timed, tr, rate.P50)
	}
	return rep, tr, nil
}

func scenarioMs(l *loop) []float64 {
	var out []float64
	for _, oc := range l.outcomes {
		if oc.err == nil {
			out = append(out, ms(oc.end.Sub(oc.start)))
		}
	}
	return out
}

func roundValues(l *loop, f func(roundStat) float64) []float64 {
	out := make([]float64, len(l.rounds))
	for i, r := range l.rounds {
		out[i] = f(r)
	}
	return out
}

// perLayer derives the per-layer metrics: exact counts from the untraced
// loop's census, runtime and runner figures from the untraced loop, and CPU
// and allocation shares from the traced loop.
func perLayer(w *workload, timed *loop, tr *traced, untracedRate float64) []metric {
	c := timed.census
	var scenNs, events float64
	for _, oc := range timed.outcomes {
		if oc.err == nil {
			scenNs += float64(oc.end.Sub(oc.start).Nanoseconds())
			events += float64(oc.events)
		}
	}
	var roundNs float64
	for _, r := range timed.rounds {
		roundNs += float64(r.wall.Nanoseconds())
	}
	var cpuTotal int64
	for _, ns := range tr.cpuByLayer {
		cpuTotal += ns
	}
	tracedSimS := float64(tr.simNs) / 1e9
	tracedRate := median(roundValues(tr.loop, roundStat.simRate))
	allocMB := func(layer string) float64 {
		return tr.allocByLayer[layer] / 1e6 / tracedSimS
	}
	self := func(layer string) metric {
		return metric{layer + ".self_frac", "frac", safeDiv(float64(tr.cpuByLayer[layer]), float64(cpuTotal))}
	}
	ms := []metric{
		{"simtime.events_per_sim_s", "1/sim-s", c.perSimS(c.Events)},
		{"simtime.host_ns_per_event", "ns", safeDiv(scenNs, events)},
		{"hv.dispatch_per_sim_s", "1/sim-s", c.perSimS(c.Dispatch)},
		{"hv.yield_per_sim_s", "1/sim-s", c.perSimS(c.Yield)},
		{"hv.yield_ple_per_sim_s", "1/sim-s", c.perSimS(c.YieldPLE)},
		{"hv.yield_ipi_per_sim_s", "1/sim-s", c.perSimS(c.YieldIPI)},
		{"hv.vipi_per_sim_s", "1/sim-s", c.perSimS(c.VIPI)},
		{"hv.migrate_micro_per_sim_s", "1/sim-s", c.perSimS(c.MigrateMicro)},
		{"hv.trace_records_per_sim_s", "1/sim-s", c.perSimS(c.TraceRecords)},
		{"guest.ops_per_sim_s", "1/sim-s", c.perSimS(c.Ops)},
		{"guest.tlb_shootdowns_per_sim_s", "1/sim-s", c.perSimS(c.TLBShootdowns)},
		{"guest.lock_acquires_per_sim_s", "1/sim-s", c.perSimS(c.LockAcquires)},
		{"workload.units_per_sim_s", "1/sim-s", c.perSimS(c.Units)},
		{"workload.ops_per_unit", "ops/unit", safeDiv(float64(c.Ops), float64(c.Units))},
		{"core.decisions_per_sim_s", "1/sim-s", c.perSimS(c.Decisions)},
		{"core.micro_avg", "cores", c.microAvg()},
		{"core.symbol_hits_per_sim_s", "1/sim-s", c.perSimS(c.SymbolHits)},
		{"vnet.offered_per_sim_s", "1/sim-s", c.perSimS(c.Offered)},
		{"vnet.completed_frac", "frac", safeDiv(float64(c.Completed), float64(c.Offered))},
		{"vnet.dropped_frac", "frac", safeDiv(float64(c.Dropped), float64(c.Offered))},
		{"obs.spans_per_sim_s", "1/sim-s", c.perSimS(c.Spans)},
		{"runtime.gc_cpu_frac", "frac", safeDiv(timed.rt.gcCPUs, timed.rt.totalCPUs)},
		{"runtime.gc_per_sim_s", "1/sim-s", safeDiv(float64(timed.rt.gcCycles), float64(timed.simNs)/1e9)},
		{"experiment.parallel_eff", "frac", safeDiv(scenNs, float64(w.workers)*roundNs)},
		{"simbench.trace_overhead_frac", "frac", 1 - safeDiv(tracedRate, untracedRate)},
	}
	for _, l := range layers {
		ms = append(ms, self(l))
	}
	for _, l := range layers {
		if l != "runtime" {
			ms = append(ms, metric{l + ".alloc_mb_per_sim_s", "MB/sim-s", allocMB(l)})
		}
	}
	return ms
}

// provenance names everything that produced this output.
func provenance(w *workload, o options) string {
	return fmt.Sprintf("simbench workload=%s seed=%d seconds=%g trace=%t scenario_sim_s=%g scenarios=%q "+
		"go=%s gomaxprocs=%d nproc=%d workers=%d cpu=%q rev=%s",
		w.name, o.seed, o.seconds.Seconds(), o.trace, o.dur.Seconds(), w.scenarios,
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), w.workers, cpuModel(), revision())
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// revision is the VCS revision the binary was built from, which the go
// tool stamps when it builds inside a git checkout.
func revision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+dirty"
		}
	}
	return rev + dirty
}

// writeTraceFiles writes the traced run's spans as Chrome trace-event
// JSON, with the provenance line attached, and its CPU profile for
// go tool pprof.
func writeTraceFiles(o options, w *workload, tr *traced, prov string) error {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d", w.name, o.seed))
	if err := os.WriteFile(base+".cpu.pprof", tr.cpuProfile, 0o644); err != nil {
		return err
	}
	f, err := os.Create(base + ".trace.json")
	if err != nil {
		return err
	}
	if err := tr.tracer.writeChrome(f, map[string]string{"provenance": prov}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

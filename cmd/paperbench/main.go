// Command paperbench regenerates every table and figure of the paper's
// evaluation on the simulated testbed and prints them as text tables.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/microslicedcore/microsliced/internal/check"
	"github.com/microslicedcore/microsliced/internal/core"
	"github.com/microslicedcore/microsliced/internal/experiment"
	"github.com/microslicedcore/microsliced/internal/obs"
	"github.com/microslicedcore/microsliced/internal/simtime"
)

func main() {
	var names []string
	for _, a := range experiment.Artefacts() {
		names = append(names, a.Name)
	}
	var (
		runs     = flag.String("run", "all", "comma-separated experiments: "+strings.Join(names, ",")+" or 'all'")
		secs     = flag.Float64("seconds", 3, "simulated seconds per run")
		par      = flag.Int("parallel", 0, "scenario workers (0 = GOMAXPROCS, 1 = serial)")
		prof     = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprof  = flag.String("memprofile", "", "write an allocation profile to this file at exit")
		faults   = flag.Bool("faults", false, "also run the fault-injection sweep (shorthand for adding faultsweep to -run)")
		recov    = flag.Bool("recovery", false, "also run the recovery sweep: harsh faults, supervisor on, MTTR percentiles (shorthand for adding recoverysweep to -run)")
		serve    = flag.Bool("serve", false, "also run the serving sweep: open-loop RPC under co-run, goodput-under-SLO and tail latency per mechanism (shorthand for adding serve to -run)")
		serveOut = flag.String("serve-out", "", "write the serving sweep result as JSON to this file (implies -serve)")
		verbose  = flag.Bool("v", false, "attach the observability layer and print one telemetry line per scenario, plus a per-kind dominant-stage blame line")
		checked  = flag.Bool("check", false, "run the conformance conservation checks after every scenario (fails fast on a scheduler accounting violation)")
		traceOut = flag.String("trace-out", "", "run one demo consolidation scenario, write its Chrome trace-event JSON (Perfetto-loadable) to this file, and exit")
		blameOut = flag.String("blame-out", "", "run one demo consolidation scenario, write its causal blame table as JSON to this file, and exit")
		baseFile = flag.String("baseline", "", "run the demo consolidation scenario and diff its span/stage percentiles against this stored baseline JSON (e.g. results/BENCH_pr8.json); exits non-zero past -baseline-threshold")
		baseTol  = flag.Float64("baseline-threshold", 0.25, "max tolerated relative regression for -baseline (0.25 = 25%)")
	)
	flag.Parse()
	experiment.SetParallelism(*par)
	if *checked || *verbose {
		experiment.SetSetupHook(setupHook(*checked, *verbose))
	}
	if *traceOut != "" {
		if err := exportTrace(*traceOut, simtime.Duration(*secs*float64(simtime.Second))); err != nil {
			fmt.Fprintf(os.Stderr, "trace-out: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *blameOut != "" {
		if err := writeBlame(*blameOut, simtime.Duration(*secs*float64(simtime.Second))); err != nil {
			fmt.Fprintf(os.Stderr, "blame-out: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *baseFile != "" {
		regressed, err := runBaseline(*baseFile, *baseTol)
		if err != nil {
			fmt.Fprintf(os.Stderr, "baseline: %v\n", err)
			os.Exit(1)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if *prof != "" {
		f, err := os.Create(*prof)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprof != "" {
		defer func() {
			f, err := os.Create(*memprof)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // flush dead objects so inuse numbers are meaningful
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}
	dur := simtime.Duration(*secs * float64(simtime.Second))
	want := map[string]bool{}
	for _, r := range strings.Split(*runs, ",") {
		want[strings.TrimSpace(r)] = true
	}
	all := want["all"]
	if *faults {
		want["faultsweep"] = true
	}
	if *recov {
		want["recoverysweep"] = true
	}
	if *serve || *serveOut != "" {
		want["serve"] = true
	}
	// The fault, recovery and serving sweeps are opt-in: "all" means the
	// paper's artefacts and the extension.
	sel := func(a experiment.Artefact) bool {
		return want[a.Name] || all && a.Class != experiment.ClassOptIn
	}

	// Artefacts run serially in registry order — fig6/fig7 consume the
	// static-best pool sizes recorded by the fig4/fig5 sweeps — but each
	// generator submits its own scenario grid through experiment.RunAll, so
	// the -parallel worker pool is busy within every artefact.
	var bests map[string]int
	start := time.Now()
	for _, a := range experiment.Artefacts() {
		if !sel(a) {
			continue
		}
		fmt.Fprintf(os.Stderr, "running %s (%v simulated per scenario, %d workers)...\n",
			a.Name, dur, experiment.Parallelism())
		t0 := time.Now()
		r, err := a.Gen(dur, bests)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", a.Name, err)
			os.Exit(1)
		}
		switch r := r.(type) {
		case *experiment.Figure4Result:
			bests = recordBests(bests, r.Sweeps)
		case *experiment.Figure5Result:
			bests = recordBests(bests, r.Sweeps)
		case *experiment.ServeSweepResult:
			if *serveOut != "" {
				if err := writeJSON(*serveOut, r); err != nil {
					fmt.Fprintf(os.Stderr, "serve-out: %v\n", err)
					os.Exit(1)
				}
			}
		}
		fmt.Fprintf(os.Stderr, "%s done in %v\n", a.Name, time.Since(t0).Round(time.Millisecond))
		r.Render(os.Stdout)
	}
	fmt.Fprintf(os.Stderr, "total wall-clock: %v\n", time.Since(start).Round(time.Millisecond))
}

// recordBests notes each Figure 4/5 sweep's best static pool size for
// Figures 6 and 7.
func recordBests(bests map[string]int, sweeps []*experiment.SweepResult) map[string]int {
	if bests == nil {
		bests = map[string]int{}
	}
	for _, s := range sweeps {
		bests[s.Workload] = s.BestStatic()
	}
	return bests
}

// setupHook builds the -check/-v hook applied to every scenario Run builds
// through experiment.Run. -v attaches an observer where the Setup has none;
// both wrap the Setup's own PostCheck: it runs first, then the conservation
// checks (-check), then the telemetry, blame and decision lines (-v).
func setupHook(checked, verbose bool) func(*experiment.Setup) {
	var mu sync.Mutex
	var lastMem runtime.MemStats
	runtime.ReadMemStats(&lastMem)
	printLines := func(s experiment.Setup, r *experiment.Result) {
		mu.Lock()
		defer mu.Unlock()
		// Process-wide allocation delta since the previous line. With
		// -parallel > 1 scenarios overlap, so the per-scenario attribution
		// is approximate; the totals are exact.
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		allocs := m.Mallocs - lastMem.Mallocs
		mb := float64(m.TotalAlloc-lastMem.TotalAlloc) / (1 << 20)
		lastMem = m
		fmt.Fprintf(os.Stderr, "%s | %d allocs/op %.1f MB/op\n", telemetryLine(s, r), allocs, mb)
		for _, line := range blameLines(s, r) {
			fmt.Fprintln(os.Stderr, line)
		}
		for _, line := range decisionLines(s, r) {
			fmt.Fprintln(os.Stderr, line)
		}
	}
	return func(s *experiment.Setup) {
		if verbose && s.Obs == nil {
			s.Obs = &obs.Config{}
		}
		inner := s.PostCheck
		s.PostCheck = func(pr *experiment.PostRun) error {
			if inner != nil {
				if err := inner(pr); err != nil {
					return err
				}
			}
			if checked {
				if err := check.Conservation(pr); err != nil {
					return err
				}
			}
			if verbose {
				printLines(*pr.Setup, pr.Result)
			}
			return nil
		}
	}
}

// telemetryLine condenses one scenario's observability read-out: the
// scenario's VMs, the three slowest span kinds by p99, and the busiest pCPU.
func telemetryLine(s experiment.Setup, r *experiment.Result) string {
	var b strings.Builder
	names := make([]string, len(s.VMs))
	for i, vm := range s.VMs {
		names[i] = vm.Name
	}
	fmt.Fprintf(&b, "telemetry [%s]:", strings.Join(names, "+"))
	if r.Telemetry == nil {
		b.WriteString(" (no observer)")
		return b.String()
	}
	spans := make([]obs.SpanStat, 0, len(r.Telemetry.Spans))
	for _, sp := range r.Telemetry.Spans {
		if sp.Count > 0 {
			spans = append(spans, sp)
		}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].P99 > spans[j].P99 })
	if len(spans) > 3 {
		spans = spans[:3]
	}
	for _, sp := range spans {
		fmt.Fprintf(&b, " %s p99=%v (n=%d)", sp.Kind, sp.P99, sp.Count)
	}
	if id, busy := r.Telemetry.BusiestPCPU(); id >= 0 {
		fmt.Fprintf(&b, " | busiest p%d %.0f%%", id, 100*float64(busy)/float64(r.Duration))
	}
	return b.String()
}

// decisionLines renders the tail of the adaptive controller's decision
// trail — when, which Algorithm 1 path fired, the size chosen and the
// sample it was judged on. Empty for runs without a dynamic controller.
func decisionLines(s experiment.Setup, r *experiment.Result) []string {
	if r.DecisionCount == 0 {
		return nil
	}
	names := make([]string, len(s.VMs))
	for i, vm := range s.VMs {
		names[i] = vm.Name
	}
	decs := r.Decisions
	if len(decs) > 4 {
		decs = decs[len(decs)-4:]
	}
	parts := make([]string, 0, len(decs))
	for _, d := range decs {
		parts = append(parts, fmt.Sprintf("t=%v %s→%d (ipi %d/ple %d/irq %d)",
			simtime.Duration(d.Time), d.Reason, d.Chosen, d.Run.IPIs, d.Run.PLEs, d.Run.IRQs))
	}
	return []string{fmt.Sprintf("  decisions [%s] %d total: %s",
		strings.Join(names, "+"), r.DecisionCount, strings.Join(parts, "; "))}
}

// demoScenario labels the fixed consolidation demo shared by -trace-out,
// -blame-out and -baseline.
const demoScenario = "gmake+swaptions"

// demoSetup is that demo: gmake and swaptions under the dynamic mechanism
// with the observer attached. All three export modes read out the same run
// so a trace, a blame table and a baseline diff describe the same timeline.
func demoSetup(dur simtime.Duration) experiment.Setup {
	return experiment.Setup{
		VMs: []experiment.VMSpec{
			{Name: "gmake", App: "gmake", Seed: 11},
			{Name: "swaptions", App: "swaptions", Seed: 22},
		},
		Core:         core.DefaultConfig(),
		Duration:     dur,
		StaggerStart: true,
		Obs:          &obs.Config{},
	}
}

// exportTrace runs the consolidation demo with the full-run trace ring
// enabled and writes the timeline as Chrome trace-event JSON.
func exportTrace(path string, dur simtime.Duration) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	s := demoSetup(dur)
	s.TraceExport = f
	res, err := experiment.Run(s)
	if err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%v simulated; load at https://ui.perfetto.dev)\n", path, res.Duration)
	return nil
}

// blameLines renders one causal-attribution line per span kind that recorded
// anything: the dominant stage, then the full breakdown (the shares sum to
// exactly 100% by construction).
func blameLines(s experiment.Setup, r *experiment.Result) []string {
	if r.Telemetry == nil {
		return nil
	}
	names := make([]string, len(s.VMs))
	for i, vm := range s.VMs {
		names[i] = vm.Name
	}
	label := strings.Join(names, "+")
	var out []string
	for i := range r.Telemetry.Spans {
		sp := &r.Telemetry.Spans[i]
		if sp.Count == 0 || sp.Blame == "" {
			continue
		}
		parts := make([]string, 0, len(sp.Stages))
		for _, st := range sp.Stages {
			parts = append(parts, fmt.Sprintf("%s %.1f%%", st.Name, st.Share))
		}
		out = append(out, fmt.Sprintf("  blame [%s] %s: %s %.1f%% dominant (%s; p99=%v n=%d)",
			label, sp.Kind, sp.Blame, sp.BlamePct, strings.Join(parts, " + "), sp.P99, sp.Count))
	}
	return out
}

// writeJSON marshals v with indentation and writes it to path.
func writeJSON(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return nil
}

// writeBlame runs the consolidation demo, validates the resulting causal
// attribution table against the schema contract, writes it as JSON and
// renders it as text.
func writeBlame(path string, dur simtime.Duration) error {
	res, err := experiment.Run(demoSetup(dur))
	if err != nil {
		return err
	}
	b := experiment.BlameFromSummary(demoScenario, res.Telemetry)
	b.Notes = append(b.Notes, fmt.Sprintf("demo consolidation scenario, %v simulated", res.Duration))
	if err := b.Validate(); err != nil {
		return err
	}
	buf, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	b.Render(os.Stdout)
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return nil
}

// baselineStage is one stage's pinned numbers in a stored baseline.
type baselineStage struct {
	SharePct float64 `json:"share_pct"`
	P99us    float64 `json:"p99_us"`
}

// baselineSpan is one span kind's pinned numbers in a stored baseline.
type baselineSpan struct {
	Count    uint64                   `json:"count"`
	P50us    float64                  `json:"p50_us"`
	P99us    float64                  `json:"p99_us"`
	P999us   float64                  `json:"p999_us"`
	Dominant string                   `json:"dominant,omitempty"`
	Stages   map[string]baselineStage `json:"stages,omitempty"`
}

// baselineDoc is the slice of a results/BENCH_*.json file the -baseline gate
// reads: the demo scenario's pinned duration and per-kind span/stage
// percentiles. Runs are deterministic in simulated time, so the stored
// numbers are machine-independent and an unchanged tree diffs to exactly 0%.
type baselineDoc struct {
	PR        int `json:"pr"`
	DemoSpans struct {
		Scenario string                  `json:"scenario"`
		Seconds  float64                 `json:"seconds"`
		Spans    map[string]baselineSpan `json:"spans"`
	} `json:"demo_spans"`
}

// runBaseline re-runs the consolidation demo at the baseline's pinned
// duration and diffs every span percentile and stage share against the
// stored numbers. It reports regressed=true when any latency grew by more
// than tol (relative) or any stage share drifted by more than tol×100
// percentage points; improvements never gate.
func runBaseline(path string, tol float64) (regressed bool, err error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return false, err
	}
	var doc baselineDoc
	if err := json.Unmarshal(buf, &doc); err != nil {
		return false, fmt.Errorf("%s: %w", path, err)
	}
	if len(doc.DemoSpans.Spans) == 0 {
		return false, fmt.Errorf("%s: no demo_spans section (not a span baseline?)", path)
	}
	secs := doc.DemoSpans.Seconds
	if secs <= 0 {
		return false, fmt.Errorf("%s: demo_spans.seconds missing", path)
	}
	res, err := experiment.Run(demoSetup(simtime.Duration(secs * float64(simtime.Second))))
	if err != nil {
		return false, err
	}
	if res.Telemetry == nil {
		return false, fmt.Errorf("demo run produced no telemetry")
	}
	cur := map[string]*obs.SpanStat{}
	for i := range res.Telemetry.Spans {
		sp := &res.Telemetry.Spans[i]
		if sp.Count > 0 {
			cur[sp.Kind] = sp
		}
	}

	var fails []string
	fmt.Printf("baseline gate: %s (pr %d, %.3gs demo) vs current, threshold %.0f%%\n",
		path, doc.PR, secs, tol*100)
	gate := func(name string, base, now float64) {
		grew := relIncrease(base, now)
		mark := ""
		if grew > tol {
			mark = "  <-- REGRESSION"
			fails = append(fails, fmt.Sprintf("%s grew %.1f%% (%.3f -> %.3f us)", name, grew*100, base, now))
		}
		fmt.Printf("  %-44s %10.3f -> %10.3f us (%+.1f%%)%s\n", name, base, now, grew*100, mark)
	}
	kinds := make([]string, 0, len(doc.DemoSpans.Spans))
	for k := range doc.DemoSpans.Spans {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, kind := range kinds {
		base := doc.DemoSpans.Spans[kind]
		sp := cur[kind]
		if sp == nil {
			fails = append(fails, fmt.Sprintf("%s: recorded in baseline (n=%d) but absent now", kind, base.Count))
			fmt.Printf("  %-44s ABSENT (baseline n=%d)  <-- REGRESSION\n", kind, base.Count)
			continue
		}
		gate(kind+" p50", base.P50us, float64(sp.P50)/1e3)
		gate(kind+" p99", base.P99us, float64(sp.P99)/1e3)
		gate(kind+" p999", base.P999us, float64(sp.P999)/1e3)
		if base.Dominant != "" && sp.Blame != base.Dominant {
			fmt.Printf("  %-44s dominant stage %s -> %s (informational)\n", kind, base.Dominant, sp.Blame)
		}
		curStage := map[string]obs.StageStat{}
		for _, st := range sp.Stages {
			curStage[st.Name] = st
		}
		stages := make([]string, 0, len(base.Stages))
		for s := range base.Stages {
			stages = append(stages, s)
		}
		sort.Strings(stages)
		for _, name := range stages {
			bs := base.Stages[name]
			cs := curStage[name]
			gate(kind+"/"+name+" p99", bs.P99us, float64(cs.P99)/1e3)
			drift := math.Abs(cs.Share - bs.SharePct)
			mark := ""
			if drift > tol*100 {
				mark = "  <-- REGRESSION"
				fails = append(fails, fmt.Sprintf("%s/%s share drifted %.1f points (%.1f%% -> %.1f%%)",
					kind, name, drift, bs.SharePct, cs.Share))
			}
			fmt.Printf("  %-44s %9.1f%% -> %9.1f%% share%s\n", kind+"/"+name, bs.SharePct, cs.Share, mark)
		}
	}
	if len(fails) > 0 {
		fmt.Printf("baseline gate: FAIL (%d regressions past %.0f%%)\n", len(fails), tol*100)
		for _, f := range fails {
			fmt.Printf("  - %s\n", f)
		}
		return true, nil
	}
	fmt.Println("baseline gate: OK")
	return false, nil
}

// relIncrease is (now-base)/base, treating a growth from zero as infinite
// and anything shrinking to or below zero as no increase.
func relIncrease(base, now float64) float64 {
	if now <= base {
		return 0
	}
	if base <= 0 {
		return math.Inf(1)
	}
	return (now - base) / base
}

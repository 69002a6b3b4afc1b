// Command microtrace runs a consolidation scenario with the trace ring
// enabled (the simulator's xentrace) and prints a per-vCPU scheduling
// analysis, a yield-RIP histogram resolved through each guest's
// System.map, and optionally the raw record tail. Two subcommands work
// with Chrome trace-event JSON instead:
//
//	microtrace -vms gmake,swaptions -mode off -seconds 1
//	microtrace -vms dedup,swaptions -mode static -cores 3 -raw 40
//	microtrace export -vms gmake,swaptions -mode dynamic -o trace.json
//	microtrace validate trace.json
//	microtrace blame trace.json
//	microtrace blame blame.json
//
// blame recomputes the causal latency-attribution table offline: given an
// exported trace it rebuilds the table from the embedded cat="blame" events;
// given a blame JSON document (paperbench -blame-out) it validates the schema
// and renders the table.
//
// Exported files load directly in Perfetto (https://ui.perfetto.dev).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"github.com/microslicedcore/microsliced/internal/core"
	"github.com/microslicedcore/microsliced/internal/experiment"
	"github.com/microslicedcore/microsliced/internal/hv"
	"github.com/microslicedcore/microsliced/internal/obs"
	"github.com/microslicedcore/microsliced/internal/report"
	"github.com/microslicedcore/microsliced/internal/simtime"
	"github.com/microslicedcore/microsliced/internal/trace"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "export":
			exportMain(os.Args[2:])
			return
		case "validate":
			validateMain(os.Args[2:])
			return
		case "blame":
			blameMain(os.Args[2:])
			return
		}
	}
	analyzeMain(os.Args[1:])
}

// scenarioFlags registers the scenario flags shared by the analysis and
// export modes and returns a builder for the experiment.Setup they describe:
// one VM per workload, named app-i with seed 11·(i+1), started 7 ms apart.
func scenarioFlags(fs *flag.FlagSet) func() (experiment.Setup, error) {
	var (
		vms     = fs.String("vms", "gmake,swaptions", "comma-separated workloads, one VM each")
		mode    = fs.String("mode", "off", "off, static, dynamic")
		cores   = fs.Int("cores", 1, "micro cores for -mode static")
		seconds = fs.Float64("seconds", 1, "simulated seconds")
		pcpus   = fs.Int("pcpus", 12, "physical CPUs")
		vcpus   = fs.Int("vcpus", 12, "vCPUs per VM")
		ring    = fs.Int("ring", 1<<20, "trace ring capacity (records)")
	)
	return func() (experiment.Setup, error) {
		cc, err := core.ModeConfig(*mode, *cores)
		if err != nil {
			return experiment.Setup{}, err
		}
		hc := hv.DefaultConfig()
		hc.TraceCapacity = *ring
		s := experiment.Setup{
			PCPUs:        *pcpus,
			Core:         cc,
			Duration:     simtime.Duration(*seconds * float64(simtime.Second)),
			StaggerStart: true,
			HVConfig:     &hc,
		}
		for i, app := range strings.Split(*vms, ",") {
			app = strings.TrimSpace(app)
			s.VMs = append(s.VMs, experiment.VMSpec{
				Name: fmt.Sprintf("%s-%d", app, i), App: app, VCPUs: *vcpus, Seed: uint64(11 * (i + 1)),
			})
		}
		return s, nil
	}
}

// fail prints err and exits 1.
func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

// analyzeMain is the classic mode: run, analyze, print text.
func analyzeMain(args []string) {
	fs := flag.NewFlagSet("microtrace", flag.ExitOnError)
	build := scenarioFlags(fs)
	raw := fs.Int("raw", 0, "also dump the last N raw records")
	fs.Parse(args)
	s, err := build()
	if err != nil {
		fail(err)
	}
	var (
		recs []trace.Record
		ctrl *core.Controller
	)
	s.PostCheck = func(pr *experiment.PostRun) error {
		recs, ctrl = pr.HV.Trace.Records(), pr.Ctrl
		return nil
	}
	if _, err := experiment.Run(s); err != nil {
		fail(err)
	}
	trace.Analyze(recs).Render(os.Stdout)

	// Yield RIPs resolve through the symbol tables the detector parsed from
	// each domain's System.map.
	fmt.Println("\nyield RIPs (by symbol):")
	rips := trace.YieldRIPs(recs, func(dom int16, rip uint64) string {
		if tab := ctrl.Symtab(int(dom)); tab != nil {
			return fmt.Sprintf("dom%d:%s", dom, tab.NameOf(rip))
		}
		return "?"
	})
	names := make([]string, 0, len(rips))
	for n := range rips {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return rips[names[i]] > rips[names[j]] })
	for _, n := range names {
		fmt.Printf("   %-48s %d\n", n, rips[n])
	}

	if *raw > 0 {
		fmt.Printf("\nlast %d records:\n", *raw)
		start := len(recs) - *raw
		if start < 0 {
			start = 0
		}
		for _, r := range recs[start:] {
			fmt.Println(r)
		}
	}
}

// exportMain runs the same scenario as analyzeMain with the observer
// attached and writes the trace ring as Chrome trace-event JSON, including
// the blame and controller-decision events microtrace blame reads back.
func exportMain(args []string) {
	fs := flag.NewFlagSet("microtrace export", flag.ExitOnError)
	build := scenarioFlags(fs)
	out := fs.String("o", "trace.json", "output file (- for stdout)")
	fs.Parse(args)
	s, err := build()
	if err != nil {
		fail(err)
	}
	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fail(err)
		}
		w = f
	}
	var records int
	s.Obs = &obs.Config{}
	s.TraceExport = w
	s.PostCheck = func(pr *experiment.PostRun) error {
		records = pr.HV.Trace.Len()
		return nil
	}
	if _, err := experiment.Run(s); err != nil {
		fail(err)
	}
	if *out != "-" {
		if err := w.Close(); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d records; load at https://ui.perfetto.dev)\n", *out, records)
	}
}

// validateMain structurally checks a Chrome trace-event JSON file.
func validateMain(args []string) {
	fs := flag.NewFlagSet("microtrace validate", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: microtrace validate <trace.json>")
		os.Exit(2)
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer f.Close()
	n, err := obs.ValidateChromeTrace(f)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: INVALID: %v\n", fs.Arg(0), err)
		os.Exit(1)
	}
	fmt.Printf("%s: ok (%d events)\n", fs.Arg(0), n)
}

// blameMain rebuilds (or validates) a causal latency-attribution table
// offline. It accepts either an exported Chrome trace (rows recomputed from
// the embedded cat="blame" events) or a blame JSON document itself; both are
// checked against the report.Blame schema contract before rendering.
func blameMain(args []string) {
	fs := flag.NewFlagSet("microtrace blame", flag.ExitOnError)
	var (
		scenario = fs.String("scenario", "trace", "scenario label for rows rebuilt from a trace")
		out      = fs.String("o", "", "also write the table as JSON to this file")
	)
	fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: microtrace blame [-scenario name] [-o blame.json] <trace.json|blame.json>")
		os.Exit(2)
	}
	buf, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	b, err := blameFromFile(buf, *scenario)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", fs.Arg(0), err)
		os.Exit(1)
	}
	if err := b.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "%s: INVALID: %v\n", fs.Arg(0), err)
		os.Exit(1)
	}
	if *out != "" {
		enc, err := json.MarshalIndent(b, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(enc, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	b.Render(os.Stdout)
	fmt.Fprintf(os.Stderr, "%s: ok (%d span kinds)\n", fs.Arg(0), len(b.Rows))
}

// blameEvent is the shape of one embedded cat="blame" trace event.
type blameEvent struct {
	Ph   string `json:"ph"`
	Cat  string `json:"cat"`
	Name string `json:"name"`
	Args struct {
		Count    uint64  `json:"count"`
		Open     int     `json:"open"`
		TotalNs  int64   `json:"total_ns"`
		P50Ns    int64   `json:"p50_ns"`
		P99Ns    int64   `json:"p99_ns"`
		P999Ns   int64   `json:"p999_ns"`
		Blame    string  `json:"blame"`
		BlamePct float64 `json:"blame_pct"`
		Stages   []struct {
			Name    string  `json:"name"`
			TotalNs int64   `json:"total_ns"`
			Share   float64 `json:"share_pct"`
			P99Ns   int64   `json:"p99_ns"`
		} `json:"stages"`
	} `json:"args"`
}

// blameFromFile interprets buf as a blame document when it has rows, and as
// an exported Chrome trace otherwise.
func blameFromFile(buf []byte, scenario string) (*report.Blame, error) {
	var probe struct {
		Title       string            `json:"title"`
		Rows        []report.BlameRow `json:"rows"`
		Notes       []string          `json:"notes"`
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf, &probe); err != nil {
		return nil, fmt.Errorf("JSON parse: %w", err)
	}
	if len(probe.Rows) > 0 {
		return &report.Blame{Title: probe.Title, Rows: probe.Rows, Notes: probe.Notes}, nil
	}
	if len(probe.TraceEvents) == 0 {
		return nil, fmt.Errorf("neither a blame document (no rows) nor a trace (no traceEvents)")
	}
	b := &report.Blame{
		Title: "Causal latency attribution: " + scenario,
		Notes: []string{"recomputed offline from embedded blame events"},
	}
	for _, raw := range probe.TraceEvents {
		var ev blameEvent
		if err := json.Unmarshal(raw, &ev); err != nil || ev.Ph != "X" || ev.Cat != "blame" {
			continue
		}
		row := report.BlameRow{
			Scenario:    scenario,
			Kind:        ev.Name,
			Count:       ev.Args.Count,
			Open:        ev.Args.Open,
			TotalMs:     float64(ev.Args.TotalNs) / 1e6,
			P50us:       float64(ev.Args.P50Ns) / 1e3,
			P99us:       float64(ev.Args.P99Ns) / 1e3,
			P999us:      float64(ev.Args.P999Ns) / 1e3,
			Dominant:    ev.Args.Blame,
			DominantPct: ev.Args.BlamePct,
		}
		for _, st := range ev.Args.Stages {
			row.Stages = append(row.Stages, report.BlameStage{
				Name:    st.Name,
				Pct:     st.Share,
				TotalMs: float64(st.TotalNs) / 1e6,
				P99us:   float64(st.P99Ns) / 1e3,
			})
		}
		b.Rows = append(b.Rows, row)
	}
	if len(b.Rows) == 0 {
		return nil, fmt.Errorf("trace has no blame events (exported without an observer summary?)")
	}
	return b, nil
}

package experiment

import (
	"fmt"
	"io"

	"github.com/microslicedcore/microsliced/internal/core"
	"github.com/microslicedcore/microsliced/internal/report"
	"github.com/microslicedcore/microsliced/internal/simtime"
)

// ---------------------------------------------------------------------------
// Serving sweep — Figure-9-style grid for the open-loop request workload
// ---------------------------------------------------------------------------

// Serving grid parameters. The host mirrors the Figure 9 mixed shape: the
// serving VM's single vCPU also runs a lookbusy thread (so it never halts
// and earns no wake boost — the paper's mixed-vCPU problem) and shares its
// pinned pCPU with a CPU-hog co-runner VM. Three pCPUs leave room for both
// static micro-pool sizes.
const (
	servePCPUs   = 3
	serveRingCap = 48 // the iPerf scenarios' netback/socket buffering bound
)

// ServeRates is the offered-load axis of the serving sweep (requests/s).
// The top rate sits past the accelerated serve vCPU's capacity, so every
// config's SLO crossover is visible inside the sweep.
var ServeRates = []int{1000, 3000, 9000, 18000}

// ServeCoruns is the co-runner axis (paper §6.2's antagonists).
var ServeCoruns = []string{"lookbusy", "swaptions"}

// serveConfigs is the mechanism axis: baseline credit, the paper's static
// micro pools and Dynamic (Algorithm 1), plus the strongest rival.
var serveConfigs = []struct {
	name  string
	cc    core.Config
	rival Rival
}{
	{"baseline", offConfig(), RivalNone},
	{"static-1", core.StaticConfig(1), RivalNone},
	{"static-2", core.StaticConfig(2), RivalNone},
	{"dynamic", core.DefaultConfig(), RivalNone},
	{"vturbo", offConfig(), RivalVTurbo},
}

// serveSLOAttainTarget is the SLO attainment a cell must reach to count as
// "meeting the SLO" for the crossover report: at most 1% of offered
// requests violated (dropped or late).
const serveSLOAttainTarget = 0.99

// ServeMeasure is one cell of the serving grid.
type ServeMeasure struct {
	Config string        `json:"config"`
	Corun  string        `json:"corun"`
	Rate   int           `json:"rate_rps"`
	Stats  *RequestStats `json:"stats"`
}

// ViolPct is the fraction of offered requests that violated the SLO
// (dropped or completed late), in percent.
func (m *ServeMeasure) ViolPct() float64 {
	if m.Stats == nil || m.Stats.Offered == 0 {
		return 0
	}
	return 100 * float64(m.Stats.Dropped+m.Stats.Late) / float64(m.Stats.Offered)
}

// MetSLO reports whether the cell reached the attainment target.
func (m *ServeMeasure) MetSLO() bool {
	return m.ViolPct() <= 100*(1-serveSLOAttainTarget)
}

// ServeSweepResult is the full serving grid plus the per-config crossover:
// the highest swept rate at which the config still met the SLO (0 = none).
type ServeSweepResult struct {
	SLOMs     float64                   `json:"slo_ms"`
	Rows      []ServeMeasure            `json:"rows"`
	Crossover map[string]map[string]int `json:"crossover"` // corun → config → rate
}

// serveSetup builds one cell's scenario: serving VM (mixed with lookbusy)
// and a co-runner VM, both pinned to pCPU 0.
func serveSetup(cfgIdx, rate int, corun string, dur simtime.Duration) Setup {
	c := serveConfigs[cfgIdx]
	return Setup{
		PCPUs: servePCPUs,
		VMs: []VMSpec{
			{
				Name: "serve", App: "lookbusy", VCPUs: 1, Seed: 11,
				Pins: []int{0},
				Serve: &ServeSpec{
					RatePerSec: rate,
					RingCap:    serveRingCap,
					Seed:       77,
				},
			},
			{Name: corun, App: corun, VCPUs: 1, Seed: 22, Pins: []int{0}},
		},
		Core:     c.cc,
		Rival:    c.rival,
		Duration: dur,
	}
}

// ServeSweep runs the serving grid: every mechanism config × offered rate ×
// co-runner, reporting goodput-under-SLO, tail latency and the SLO
// crossover per config.
func ServeSweep(dur simtime.Duration) (*ServeSweepResult, error) {
	out := &ServeSweepResult{
		SLOMs:     float64(DefaultServeSLO) / 1e6,
		Crossover: map[string]map[string]int{},
	}
	type cell struct {
		cfg, rate int
		corun     string
	}
	var (
		cells  []cell
		setups []Setup
	)
	for _, corun := range ServeCoruns {
		for ci := range serveConfigs {
			for _, r := range ServeRates {
				cells = append(cells, cell{cfg: ci, rate: r, corun: corun})
				setups = append(setups, serveSetup(ci, r, corun, dur))
			}
		}
	}
	res, err := RunAll(setups)
	if err != nil {
		return nil, err
	}
	out.Rows = make([]ServeMeasure, len(cells))
	for i, c := range cells {
		st := res[i].VM("serve").Requests
		if st == nil {
			return nil, fmt.Errorf("experiment: serve cell %s/%s/%d: no request stats", serveConfigs[c.cfg].name, c.corun, c.rate)
		}
		out.Rows[i] = ServeMeasure{
			Config: serveConfigs[c.cfg].name,
			Corun:  c.corun,
			Rate:   c.rate,
			Stats:  st,
		}
	}
	for i := range out.Rows {
		m := &out.Rows[i]
		byCfg := out.Crossover[m.Corun]
		if byCfg == nil {
			byCfg = map[string]int{}
			out.Crossover[m.Corun] = byCfg
		}
		if m.MetSLO() && m.Rate > byCfg[m.Config] {
			byCfg[m.Config] = m.Rate
		}
	}
	return out, nil
}

// Render implements report.Renderer.
func (r *ServeSweepResult) Render(w io.Writer) {
	t := report.Table{
		Title: fmt.Sprintf("Serving sweep: open-loop RPC under co-run, %.0fms SLO (Figure 9 shape)", r.SLOMs),
		Columns: []string{
			"config", "corun", "rate (req/s)", "goodput<SLO (req/s)",
			"p99 (ms)", "p999 (ms)", "viol %", "drop", "SLO",
		},
	}
	for i := range r.Rows {
		m := &r.Rows[i]
		st := m.Stats
		met := "miss"
		if m.MetSLO() {
			met = "met"
		}
		t.AddRow(m.Config, m.Corun, m.Rate,
			fmt.Sprintf("%.0f", st.GoodputRPS),
			fmt.Sprintf("%.3f", float64(st.P99)/1e6),
			fmt.Sprintf("%.3f", float64(st.P999)/1e6),
			fmt.Sprintf("%.2f", m.ViolPct()),
			st.Dropped, met)
	}
	for _, corun := range ServeCoruns {
		byCfg := r.Crossover[corun]
		line := fmt.Sprintf("crossover vs %s (highest rate meeting the SLO):", corun)
		for _, c := range serveConfigs {
			rate := byCfg[c.name]
			if rate == 0 {
				line += fmt.Sprintf(" %s=never", c.name)
			} else {
				line += fmt.Sprintf(" %s=%d", c.name, rate)
			}
		}
		t.Notes = append(t.Notes, line)
	}
	t.Notes = append(t.Notes,
		"paper Figure 9: micro-slicing recovers I/O latency under the mixed co-run while baseline credit degrades it ~100x")
	t.Render(w)
}

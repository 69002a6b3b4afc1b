package experiment

import (
	"bytes"
	"strings"
	"testing"
)

// TestServeSweepShape asserts the Figure-9 shape on the serving grid:
// baseline credit never meets the 5ms SLO under the mixed co-run, while
// every micro-sliced config (and the vTurbo rival) holds it through the
// mid rates; all configs saturate past the serve vCPU's capacity at the
// top rate, so the crossover is visible inside the sweep.
func TestServeSweepShape(t *testing.T) {
	r, err := ServeSweep(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(ServeCoruns)*len(serveConfigs)*len(ServeRates) {
		t.Fatalf("grid incomplete: %d rows", len(r.Rows))
	}
	for i := range r.Rows {
		m := &r.Rows[i]
		if m.Stats == nil || m.Stats.Offered == 0 {
			t.Fatalf("%s/%s/%d: empty cell", m.Config, m.Corun, m.Rate)
		}
		// Conservation holds in every cell.
		st := m.Stats
		if st.Offered != st.Dropped+st.Completed+st.InFlight {
			t.Fatalf("%s/%s/%d: offered=%d != dropped=%d + completed=%d + inflight=%d",
				m.Config, m.Corun, m.Rate, st.Offered, st.Dropped, st.Completed, st.InFlight)
		}
	}
	for _, corun := range ServeCoruns {
		byCfg := r.Crossover[corun]
		if byCfg["baseline"] != 0 {
			t.Fatalf("vs %s: baseline credit met the SLO at %d req/s — Figure 9 shape lost",
				corun, byCfg["baseline"])
		}
		for _, cfg := range []string{"static-1", "static-2", "dynamic"} {
			if byCfg[cfg] < 9000 {
				t.Fatalf("vs %s: %s crossover %d req/s, want >= 9000 — micro-slicing not recovering the SLO",
					corun, cfg, byCfg[cfg])
			}
		}
	}
	var buf bytes.Buffer
	r.Render(&buf)
	out := buf.String()
	for _, want := range []string{"Serving sweep", "crossover", "baseline=never"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q", want)
		}
	}
}

// TestServeCellDeterministic: one serving cell, run twice, must agree on
// every request statistic (the sweep itself runs cells via RunAll, so
// this is the per-cell half of the bit-identical guarantee).
func TestServeCellDeterministic(t *testing.T) {
	run := func() RequestStats {
		res, err := Run(serveSetup(3, 9000, "lookbusy", quick))
		if err != nil {
			t.Fatal(err)
		}
		st := res.VM("serve").Requests
		if st == nil {
			t.Fatal("no request stats")
		}
		return *st
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("serve cell not deterministic:\n%+v\n%+v", a, b)
	}
}

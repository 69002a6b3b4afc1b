package experiment

import (
	"io"

	"github.com/microslicedcore/microsliced/internal/core"
	"github.com/microslicedcore/microsliced/internal/hv"
	"github.com/microslicedcore/microsliced/internal/report"
	"github.com/microslicedcore/microsliced/internal/rivals"
	"github.com/microslicedcore/microsliced/internal/simtime"
)

// Rival selects a prior-work system in place of the paper's mechanism.
type Rival string

// Rival systems (paper Table 1).
const (
	RivalNone    Rival = ""
	RivalFixed   Rival = "fixed-usliced"
	RivalVTurbo  Rival = "vturbo"
	RivalVTRS    Rival = "vtrs"
	RivalCoSched Rival = "cosched"
)

// attachRival installs a rival system on a freshly built hypervisor and
// returns its start function (nil for RivalNone; Validate rejects unknown
// rivals).
func attachRival(h *hv.Hypervisor, r Rival) func() {
	switch r {
	case RivalFixed:
		return rivals.NewFixedMicroSliced(h, 100*simtime.Microsecond).Start
	case RivalVTurbo:
		return rivals.NewVTurbo(h, 1).Start
	case RivalVTRS:
		return rivals.NewVTRS(h).Start
	case RivalCoSched:
		return rivals.NewCoSched(h, 0).Start
	}
	return nil
}

// Table1Row is one system's outcome across the three symptom scenarios.
type Table1Row struct {
	System string
	// LockGain: exim throughput vs baseline (lock-holder preemption).
	LockGain float64
	// TLBGain: dedup throughput vs baseline (one-to-many IPIs).
	TLBGain float64
	// MixedIOGain: mixed-vCPU iPerf TCP bandwidth vs baseline.
	MixedIOGain float64
	// CoRunnerCost: swaptions normalized execution time in the lock
	// scenario (>1 is worse) — the price of the mitigation.
	CoRunnerCost float64
}

// Table1Result quantifies the paper's Table 1: every prior approach
// against the flexible micro-sliced cores on the three symptom classes.
type Table1Result struct {
	Rows []Table1Row
}

// Table1 measures baseline, the three implemented rivals, and the paper's
// mechanism (static best and dynamic) on the lock, TLB and mixed-I/O
// symptom scenarios.
func Table1(dur simtime.Duration) (*Table1Result, error) {
	off, dynamic := offConfig(), core.DefaultConfig()
	// lock also configures the mixed-I/O scenario; the static mechanism
	// runs its best pool size for each symptom.
	systems := []struct {
		name      string
		rival     Rival
		lock, tlb core.Config
	}{
		{"baseline", RivalNone, off, off},
		{"cosched", RivalCoSched, off, off},
		{"fixed-usliced", RivalFixed, off, off},
		{"vturbo", RivalVTurbo, off, off},
		{"vtrs", RivalVTRS, off, off},
		{"usliced-static", RivalNone, core.StaticConfig(1), core.StaticConfig(3)},
		{"usliced-dynamic", RivalNone, dynamic, dynamic},
	}

	// Each system contributes three independent measurements (lock, TLB,
	// mixed I/O). Run the whole (system x scenario) grid at once and
	// assemble the baseline-normalized rows afterwards.
	setups := make([]Setup, 0, 3*len(systems))
	for _, sys := range systems {
		lock := corunSetup("exim", sys.lock, dur)
		tlb := corunSetup("dedup", sys.tlb, dur)
		mixedIO := IOSetup("tcp", true, sys.lock, dur)
		lock.Rival, tlb.Rival, mixedIO.Rival = sys.rival, sys.rival, sys.rival
		setups = append(setups, lock, tlb, mixedIO)
	}
	res, err := RunAll(setups)
	if err != nil {
		return nil, err
	}

	out := &Table1Result{}
	var baseLock, baseTLB, baseCo, baseIO float64
	for i, sys := range systems {
		lock, tlb, mixedIO := res[3*i], res[3*i+1], res[3*i+2]
		lockUnits := float64(lock.VM("exim").Units)
		tlbUnits := float64(tlb.VM("dedup").Units)
		coUnits := float64(lock.VM("swaptions").Units)
		ioMbps := mixedIO.VM("vm1").IPerf.Mbps
		if i == 0 {
			baseLock, baseTLB, baseCo, baseIO = lockUnits, tlbUnits, coUnits, ioMbps
		}
		out.Rows = append(out.Rows, Table1Row{
			System:       sys.name,
			LockGain:     lockUnits / baseLock,
			TLBGain:      tlbUnits / baseTLB,
			MixedIOGain:  ioMbps / baseIO,
			CoRunnerCost: baseCo / coUnits,
		})
	}
	return out, nil
}

// Render implements report.Renderer.
func (r *Table1Result) Render(w io.Writer) {
	t := report.Table{
		Title: "Table 1 (quantified): prior approaches vs flexible micro-sliced cores",
		Columns: []string{"system", "lock gain (exim)", "tlb gain (dedup)",
			"mixed-I/O gain (tcp)", "co-runner cost"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.System, row.LockGain, row.TLBGain, row.MixedIOGain, row.CoRunnerCost)
	}
	t.Notes = append(t.Notes,
		"gains are throughput vs baseline (>1 better); co-runner cost is swaptions normalized time in the lock scenario (>1 worse)")
	t.Notes = append(t.Notes,
		"expected shape per the paper: vturbo helps only I/O; vtrs helps broadly but coarsely; fixed-usliced helps all three but taxes the co-runner; usliced matches/beats all with the lowest tax")
	t.Render(w)
}

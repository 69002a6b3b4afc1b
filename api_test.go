package microsliced

import (
	"bytes"
	"io"
	"reflect"
	"strings"
	"testing"

	"github.com/microslicedcore/microsliced/internal/experiment"
)

func TestWorkloadsListed(t *testing.T) {
	w := Workloads()
	if len(w) < 10 {
		t.Fatalf("workloads: %v", w)
	}
	found := map[string]bool{}
	for _, n := range w {
		found[n] = true
	}
	for _, need := range []string{"swaptions", "exim", "dedup", "gmake"} {
		if !found[need] {
			t.Fatalf("missing %s", need)
		}
	}
}

func TestSimulateBaselineCoRun(t *testing.T) {
	res, err := Simulate(Scenario{
		VMs:     []VM{{App: "exim"}, {App: "swaptions"}},
		Seconds: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	exim := res.VM("exim")
	if exim == nil || exim.WorkUnits == 0 {
		t.Fatal("exim made no progress")
	}
	if exim.TotalYields() == 0 {
		t.Fatal("no yields in a 2:1 consolidation")
	}
	if res.VM("swaptions").CPUSeconds == 0 {
		t.Fatal("no CPU accounting")
	}
	if res.MicroCoresAvg != 0 {
		t.Fatal("baseline should have no micro cores")
	}
}

func TestSimulateStaticAcceleratesExim(t *testing.T) {
	base, err := Simulate(Scenario{
		VMs:     []VM{{App: "exim"}, {App: "swaptions"}},
		Seconds: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	accel, err := Simulate(Scenario{
		VMs:         []VM{{App: "exim"}, {App: "swaptions"}},
		Mode:        Static,
		StaticCores: 1,
		Seconds:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	gain := float64(accel.VM("exim").WorkUnits) / float64(base.VM("exim").WorkUnits)
	if gain < 1.5 {
		t.Fatalf("exim gain %.2fx with one micro core, want >= 1.5x", gain)
	}
	if len(accel.CriticalSymbolHits) == 0 {
		t.Fatal("no critical symbols detected")
	}
	if accel.DetectorCounters["migrate.ok"] == 0 {
		t.Fatal("no migrations recorded")
	}
}

func TestSimulateDynamicMode(t *testing.T) {
	res, err := Simulate(Scenario{
		VMs:     []VM{{App: "gmake"}, {App: "swaptions"}},
		Mode:    Dynamic,
		Seconds: 1.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MicroCoresAvg <= 0 {
		t.Fatalf("adaptive controller never grew the pool (avg %.2f)", res.MicroCoresAvg)
	}
}

func TestSimulateValidation(t *testing.T) {
	if _, err := Simulate(Scenario{}); err == nil {
		t.Fatal("empty scenario accepted")
	}
	if _, err := Simulate(Scenario{VMs: []VM{{App: "nope"}}}); err == nil {
		t.Fatal("unknown app accepted")
	}
	if _, err := Simulate(Scenario{VMs: []VM{{App: "exim"}}, Mode: "weird"}); err == nil {
		t.Fatal("unknown mode accepted")
	}
	if _, err := Simulate(Scenario{
		PCPUs: 2,
		VMs:   []VM{{App: "exim", VCPUs: 1, Pins: []int{5}}},
	}); err == nil {
		t.Fatal("out-of-range pin accepted")
	}
}

func TestSimulateServing(t *testing.T) {
	res, err := Simulate(Scenario{
		PCPUs: 3,
		VMs: []VM{
			{App: "lookbusy", VCPUs: 1, Serve: &ServeConfig{RatePerSec: 4000}},
			{App: "swaptions", VCPUs: 1},
		},
		Mode:    Dynamic,
		Seconds: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	rq := res.VM("lookbusy").Requests
	if rq == nil {
		t.Fatal("no request stats on the serving VM")
	}
	if rq.Offered == 0 || rq.Completed == 0 {
		t.Fatalf("no serving traffic: %+v", rq)
	}
	if rq.Offered != rq.Dropped+rq.Completed+rq.InFlight {
		t.Fatalf("request ledger unbalanced: %+v", rq)
	}
	if rq.SLOMs != 5 {
		t.Fatalf("default SLO %v ms, want 5", rq.SLOMs)
	}
	if a := rq.SLOAttainment(); a < 0 || a > 1 {
		t.Fatalf("attainment %v outside [0,1]", a)
	}
	if other := res.VM("swaptions").Requests; other != nil {
		t.Fatal("non-serving VM has request stats")
	}

	if _, err := Simulate(Scenario{
		VMs: []VM{{App: "exim", Serve: &ServeConfig{RatePerSec: 0}}},
	}); err == nil {
		t.Fatal("zero serve rate accepted")
	}
	if _, err := Simulate(Scenario{
		VMs: []VM{{App: "exim", Serve: &ServeConfig{RatePerSec: 100, SLOMs: -1}}},
	}); err == nil {
		t.Fatal("negative SLO accepted")
	}
}

func TestSimulateDeterministic(t *testing.T) {
	run := func() uint64 {
		res, err := Simulate(Scenario{
			VMs:     []VM{{App: "dedup"}, {App: "swaptions"}},
			Seconds: 0.5,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.VM("dedup").WorkUnits
	}
	if run() != run() {
		t.Fatal("Simulate is not deterministic")
	}
}

func TestSimulateLockAndTLBStats(t *testing.T) {
	res, err := Simulate(Scenario{
		VMs:     []VM{{App: "dedup"}, {App: "swaptions"}},
		Seconds: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	d := res.VM("dedup")
	if d.TLBSyncAvgUs <= 0 || d.TLBSyncMaxUs < d.TLBSyncAvgUs {
		t.Fatalf("TLB stats: avg=%.1f max=%.1f", d.TLBSyncAvgUs, d.TLBSyncMaxUs)
	}
}

func TestExperimentsList(t *testing.T) {
	if len(Experiments()) != 12 {
		t.Fatalf("experiments: %v", Experiments())
	}
}

// TestExperimentsResolveInRegistry pins the public artefact list and its
// order, and requires every name to resolve to a paper artefact in the
// experiment registry.
func TestExperimentsResolveInRegistry(t *testing.T) {
	want := []string{
		"table1", "table2", "table3", "table4a", "table4b", "table4c",
		"fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
	}
	if got := Experiments(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Experiments() = %v, want %v", got, want)
	}
	for _, name := range want {
		if a, ok := experiment.Lookup(name); !ok || a.Class != experiment.ClassPaper || a.Gen == nil {
			t.Errorf("%s does not resolve to a paper artefact in the registry", name)
		}
	}
	if err := Reproduce("ext-usercs", 0.1, io.Discard); err == nil {
		t.Error("Reproduce accepted an artefact outside the paper's evaluation")
	}
}

func TestReproduceTable2(t *testing.T) {
	var buf bytes.Buffer
	if err := Reproduce("table2", 0.5, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Table 2") || !strings.Contains(out, "exim") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}

func TestReproduceUnknown(t *testing.T) {
	var buf bytes.Buffer
	if err := Reproduce("table99", 0.5, &buf); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestVMDefaults(t *testing.T) {
	res, err := Simulate(Scenario{
		VMs:     []VM{{App: "lookbusy", Name: "", VCPUs: 2}},
		PCPUs:   2,
		Seconds: 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.VM("lookbusy") == nil {
		t.Fatal("default name should be the app name")
	}
}

func TestSimulateIPerfSoloVsMixed(t *testing.T) {
	solo, err := SimulateIPerf("udp", false, Off, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := SimulateIPerf("udp", true, Off, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if mixed.Mbps >= solo.Mbps {
		t.Fatalf("mixed %.1f vs solo %.1f — no degradation", mixed.Mbps, solo.Mbps)
	}
	if mixed.JitterMs < 0.5 || solo.JitterMs > 0.1 {
		t.Fatalf("jitter solo=%.4f mixed=%.4f", solo.JitterMs, mixed.JitterMs)
	}
	fixed, err := SimulateIPerf("udp", true, Static, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fixed.Mbps < solo.Mbps*0.95 || fixed.Loss > 0.01 {
		t.Fatalf("u-slicing did not rescue the mixed vCPU: %+v", fixed)
	}
}

func TestSimulateIPerfValidation(t *testing.T) {
	if _, err := SimulateIPerf("sctp", false, Off, 0, 1); err == nil {
		t.Fatal("unknown proto accepted")
	}
	if _, err := SimulateIPerf("udp", false, "weird", 0, 1); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

func TestSimulateIPerfTCPDynamic(t *testing.T) {
	r, err := SimulateIPerf("tcp", true, Dynamic, 0, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if r.Mbps <= 0 {
		t.Fatalf("no TCP progress: %+v", r)
	}
}

func TestSimulateFileserverNeedsDiskFlag(t *testing.T) {
	base, err := Simulate(Scenario{
		VMs:     []VM{{App: "fileserver", Disk: true}, {App: "swaptions"}},
		Seconds: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if base.VM("fileserver").WorkUnits == 0 {
		t.Fatal("fileserver made no progress")
	}
	accel, err := Simulate(Scenario{
		VMs:         []VM{{App: "fileserver", Disk: true}, {App: "swaptions"}},
		Mode:        Static,
		StaticCores: 1,
		Seconds:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	gain := float64(accel.VM("fileserver").WorkUnits) / float64(base.VM("fileserver").WorkUnits)
	// A purely blocking-I/O VM is already served well by BOOST (halted
	// vCPUs wake boosted on every completion) — the paper's observation
	// that only *mixed* vCPUs need the mechanism. The micro pool must at
	// least not hurt it. The mixed-vCPU disk rescue is covered by
	// internal/vdisk's TestMixedDiskVCPUSuffersAndIsRescued.
	if gain < 0.9 {
		t.Fatalf("fileserver regressed %.2fx under the mechanism", gain)
	}
}

func TestSimulateRival(t *testing.T) {
	res, err := Simulate(Scenario{
		VMs:     []VM{{App: "exim"}, {App: "swaptions"}},
		Rival:   "cosched",
		Seconds: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.HypervisorCounters["sched.force_preempt"] == 0 {
		t.Fatal("cosched rival never gang-dispatched")
	}
	if _, err := Simulate(Scenario{
		VMs: []VM{{App: "exim"}}, Rival: "nope", Seconds: 0.2,
	}); err == nil {
		t.Fatal("unknown rival accepted")
	}
	if _, err := Simulate(Scenario{
		VMs: []VM{{App: "exim"}}, Rival: "vtrs", Mode: Dynamic, Seconds: 0.2,
	}); err == nil {
		t.Fatal("rival with Mode != Off accepted")
	}
}

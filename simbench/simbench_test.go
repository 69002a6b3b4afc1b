package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/microslicedcore/microsliced/internal/experiment"
	"github.com/microslicedcore/microsliced/internal/simtime"
)

// benchmarkSpec is the part of the repository's BENCHMARK.json the
// benchmark must agree with.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// result is the last line of a run's output.
type result struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]struct {
		Value float64
		Unit  string
	}
}

// tiny returns options for a short run: 20 ms scenarios, census only
// unless seconds is raised.
func tiny(name string, trace bool) options {
	return options{
		workload: name, seed: 7, trace: trace,
		dur: 20 * simtime.Millisecond, setupReps: 1,
	}
}

func runTiny(t *testing.T, o options) (string, result) {
	t.Helper()
	if o.outDir == "" {
		o.outDir = t.TempDir()
	}
	var out bytes.Buffer
	if err := run(o, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	text := strings.TrimSpace(out.String())
	var res result
	if err := json.Unmarshal([]byte(text[strings.LastIndexByte(text, '\n')+1:]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, text)
	}
	return text, res
}

func TestWorkloadsMatchSpec(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
}

// TestTinyRunPrintsEveryMetric runs every workload briefly, untraced and
// traced, and requires every metric of BENCHMARK.json by name and unit,
// a passing correctness check, and CPU shares that sum to one.
func TestTinyRunPrintsEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			text, res := runTiny(t, tiny(w.name, false))
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("correct=%t failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, text)
			}
			if len(res.Metrics) != len(spec.EndToEnd) {
				t.Errorf("untraced run reports %d metrics, BENCHMARK.json has %d end-to-end", len(res.Metrics), len(spec.EndToEnd))
			}
			for _, m := range spec.EndToEnd {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("end-to-end %s: got %+v, want unit %s", m.Name, got, m.Unit)
				} else if got.Value <= 0 {
					t.Errorf("end-to-end %s = %v, want > 0", m.Name, got.Value)
				}
			}
			for _, want := range []string{"metric failed_frac", "digest " + w.name, "dist scenario_ms ", "dist setup_s ", "simbench workload=" + w.name} {
				if !strings.Contains(text, want) {
					t.Errorf("output lacks %q", want)
				}
			}

			o := tiny(w.name, true)
			o.seconds = 300 * time.Millisecond
			text, res = runTiny(t, o)
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("traced: correct=%t failed=%d\n%s", res.Correct, res.Failed, text)
			}
			if len(res.Metrics) != len(spec.PerLayer) {
				t.Errorf("traced run reports %d metrics, BENCHMARK.json has %d per-layer", len(res.Metrics), len(spec.PerLayer))
			}
			var selfSum float64
			for _, m := range spec.PerLayer {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("per-layer %s: got %+v, want unit %s", m.Name, got, m.Unit)
				}
				if !strings.Contains(text, "layer  "+m.Name+" ") {
					t.Errorf("no printed line for %s", m.Name)
				}
				if strings.HasSuffix(m.Name, ".self_frac") {
					selfSum += got.Value
				}
			}
			if math.Abs(selfSum-1) > 1e-9 {
				t.Errorf("self_frac values sum to %v, want 1", selfSum)
			}
			if res.Metrics["simtime.events_per_sim_s"].Value <= 0 {
				t.Error("census counted no events")
			}
		})
	}
}

// TestCensusRepeats requires the deterministic census and its digest to
// be identical across runs of one seed, and to differ across seeds.
func TestCensusRepeats(t *testing.T) {
	digest := func(seed uint64) string {
		o := tiny("tlb-baseline", false)
		o.seed = seed
		text, _ := runTiny(t, o)
		for _, line := range strings.Split(text, "\n") {
			if strings.HasPrefix(line, "digest ") {
				return line
			}
		}
		t.Fatalf("no digest line\n%s", text)
		return ""
	}
	a, b, c := digest(3), digest(3), digest(4)
	if a != b {
		t.Errorf("same seed, different census:\n%s\n%s", a, b)
	}
	if a == c {
		t.Errorf("seeds 3 and 4 gave the same census: %s", a)
	}
}

// TestTamperedRunsCountAsFailed is the teeth test: a verification run
// whose hypervisor counter is perturbed breaks a conservation law, and one
// whose result is altered no longer matches the timed run's digest; both
// must be counted as failed scenarios.
func TestTamperedRunsCountAsFailed(t *testing.T) {
	cases := map[string]func(*experiment.PostRun){
		"perturbed-counter": func(pr *experiment.PostRun) { pr.HV.Counters.Handle("yield.ple").Inc() },
		"digest-mismatch":   func(pr *experiment.PostRun) { pr.Result.VMs[0].Units++ },
	}
	for name, perturb := range cases {
		t.Run(name, func(t *testing.T) {
			o := tiny("lock-sweep", false)
			o.perturb = perturb
			text, res := runTiny(t, o)
			census := workloads[0].census * len(lockSweepConfigs)
			if res.Correct || res.Failed != census {
				t.Fatalf("correct=%t failed=%d, want false and %d\n%s", res.Correct, res.Failed, census, text)
			}
			if !strings.Contains(text, "FAIL timed") {
				t.Errorf("no FAIL line\n%s", text)
			}
		})
	}
}

func TestQuantilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		n    int
		want []float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 4, []float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, 4, []float64{1, 2, 3}},
		{[]float64{7}, 4, []float64{7, 7, 7}},
	} {
		got := quantiles(c.xs, c.n)
		for i := range c.want {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quantiles(%v, %d) = %v, want %v", c.xs, c.n, got, c.want)
				break
			}
		}
	}
	if got := quantiles([]float64{5, 1}, 10)[8]; math.Abs(got-7.8) > 1e-12 {
		t.Errorf("p90 of {5, 1} = %v, want 7.8", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestJobStarts(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	// Two workers: jobs 0 and 1 start at 0; job 1 ends first (at 3), so
	// job 2 starts then on lane 1; job 0 ends at 5, so job 3 starts then
	// on lane 0.
	starts, lanes := jobStarts(t0, []time.Time{at(5), at(3), at(9), at(8)}, 2)
	wantStarts := []time.Time{at(0), at(0), at(3), at(5)}
	wantLanes := []int{0, 1, 1, 0}
	for i := range starts {
		if !starts[i].Equal(wantStarts[i]) || lanes[i] != wantLanes[i] {
			t.Errorf("job %d: start %v lane %d, want %v lane %d", i, starts[i].Sub(t0), lanes[i], wantStarts[i].Sub(t0), wantLanes[i])
		}
	}
}

func TestCPULayerAttribution(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"math.Log", modulePath + "/internal/rng.(*Rand).Exp", modulePath + "/internal/workload.build"}, "rng"},
		{[]string{"runtime.memmove", "runtime.mallocgc", modulePath + "/internal/workload.build"}, "runtime"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime"},
		{[]string{"runtime.mapaccess1", modulePath + "/internal/ksym.(*Table).Lookup"}, "core"},
		{[]string{modulePath + "/internal/trace.(*Buffer).Emit", modulePath + "/internal/hv.(*Hypervisor).emit"}, "hv"},
		{[]string{"crypto/sha256.block", "main.digestOf"}, "other"},
		{[]string{"compress/flate.(*compressor).deflate", "runtime/pprof.profileWriter"}, "other"},
	} {
		if got := cpuLayer(c.frames); got != c.want {
			t.Errorf("cpuLayer(%v) = %s, want %s", c.frames, got, c.want)
		}
	}
}

package check

import (
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"github.com/microslicedcore/microsliced/internal/core"
	"github.com/microslicedcore/microsliced/internal/experiment"
	"github.com/microslicedcore/microsliced/internal/obs"
	"github.com/microslicedcore/microsliced/internal/simtime"
)

// envInt reads an integer environment override (the CI long-run job scales
// the suite up without a code change).
func envInt(name string, def int) int {
	if s := os.Getenv(name); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return def
}

func envUint(name string, def uint64) uint64 {
	if s := os.Getenv(name); s != "" {
		if n, err := strconv.ParseUint(s, 10, 64); err == nil {
			return n
		}
	}
	return def
}

// TestConformanceSuite is the harness's main entry point: 200 generated
// scenarios (CHECK_COUNT/CHECK_SEED override; the scheduled CI job runs 10×
// with rotating seeds), each checked against every metamorphic relation and
// conservation law. Failures are shrunk and dumped under CHECK_FIXTURE_DIR
// when set.
func TestConformanceSuite(t *testing.T) {
	opt := Options{
		Seed:       envUint("CHECK_SEED", 1),
		Count:      envInt("CHECK_COUNT", 200),
		FixtureDir: os.Getenv("CHECK_FIXTURE_DIR"),
	}
	if testing.Verbose() {
		opt.Progress = os.Stderr
	}
	rep, err := RunSuite(opt)
	if err != nil {
		t.Fatalf("suite: %v", err)
	}
	if rep.Checked < opt.Count && len(rep.Failures) == 0 {
		t.Fatalf("suite stopped early: %d/%d scenarios", rep.Checked, opt.Count)
	}
	for i, f := range rep.Failures {
		where := ""
		if i < len(rep.FixturePaths) && rep.FixturePaths[i] != "" {
			where = " (fixture: " + rep.FixturePaths[i] + ")"
		}
		t.Errorf("seed %d: %s%s\nshrunk repro: %+v", f.Seed, f.Err, where, f.Shrunk)
	}
}

// TestInjectedBugCaughtAndShrunk proves the harness has teeth: a mutation
// that corrupts one hypervisor counter whenever a run has at least two VMs
// must be detected by the relation comparison and shrunk to a repro of at
// most two domains.
func TestInjectedBugCaughtAndShrunk(t *testing.T) {
	c := &Checker{mutate: func(r *experiment.Result) {
		if len(r.VMs) >= 2 {
			r.HV["yield.total"]++
		}
	}}
	var sc Scenario
	found := false
	for seed := uint64(1); seed < 64 && !found; seed++ {
		if s := Generate(seed); len(s.VMs) >= 2 {
			// Keep the hunt cheap: the shrinker, not the generator, is
			// under test, so any multi-VM scenario will do.
			sc, found = s, true
		}
	}
	if !found {
		t.Fatal("generator produced no multi-VM scenario in 64 seeds")
	}
	err := c.Check(sc)
	if err == nil {
		t.Fatal("injected accounting bug was not caught")
	}
	if !strings.Contains(err.Error(), "yield.total") {
		t.Fatalf("diff does not name the corrupted counter: %v", err)
	}
	fails := func(s Scenario) bool { return c.Check(s) != nil }
	shrunk := Shrink(sc, fails, 80)
	if len(shrunk.VMs) > 2 {
		t.Fatalf("shrunk repro still has %d domains, want <= 2", len(shrunk.VMs))
	}
	if !fails(shrunk) {
		t.Fatal("shrunk scenario no longer reproduces the failure")
	}
}

// TestShrinkKeepsScenariosValid: the shrinker commits only candidates whose
// Setup validates, so a fixture reproduces the failure, not a validation
// error. With an oracle that holds while any unplug remains, Generate(56)
// used to shrink to 4 unplugs on 2 pCPUs, which fault.New rejects.
func TestShrinkKeepsScenariosValid(t *testing.T) {
	unplugs := func(s Scenario) bool {
		return s.Faults != nil && s.Faults.OfflinePCPUs+s.Faults.PermanentOffPCPUs > 0
	}
	for seed := uint64(1); seed <= 100; seed++ {
		for _, sc := range []Scenario{Generate(seed), GenerateRecovery(seed)} {
			if !unplugs(sc) {
				continue
			}
			shrunk := Shrink(sc, unplugs, 200)
			s, err := shrunk.ToSetup()
			if err == nil {
				err = s.Validate()
			}
			if err != nil || !unplugs(shrunk) {
				t.Fatalf("seed %d: shrunk to %+v (unplugs %v): %v", seed, shrunk, unplugs(shrunk), err)
			}
		}
	}
	if !unplugs(Generate(56)) {
		t.Fatal("Generate(56) no longer schedules an unplug; pick another seed")
	}
}

// TestInjectedStageSkewCaughtAndShrunk proves the stage conservation law has
// teeth: a PostCheck that deliberately mis-attributes one microsecond of
// wake_dispatch time to a stage — without touching the span ledger — must be
// caught by the Σ stages == span total law and shrunk like any other bug.
func TestInjectedStageSkewCaughtAndShrunk(t *testing.T) {
	c := &Checker{post: func(pr *experiment.PostRun) error {
		if pr.Obs != nil {
			pr.Obs.SkewStageLedger(obs.SpanWakeDispatch, obs.WakeStageRunq, simtime.Microsecond)
		}
		return Conservation(pr)
	}}
	sc := Generate(1)
	err := c.Check(sc)
	if err == nil {
		t.Fatal("injected stage mis-attribution was not caught")
	}
	if !strings.Contains(err.Error(), "stage ledger") || !strings.Contains(err.Error(), "wake_dispatch") {
		t.Fatalf("error does not name the skewed stage ledger: %v", err)
	}
	fails := func(s Scenario) bool { return c.Check(s) != nil }
	shrunk := Shrink(sc, fails, 80)
	if len(shrunk.VMs) > 2 {
		t.Fatalf("shrunk repro still has %d domains, want <= 2", len(shrunk.VMs))
	}
	if !fails(shrunk) {
		t.Fatal("shrunk scenario no longer reproduces the failure")
	}
}

// TestInjectedDecisionSkewCaughtAndShrunk proves the controller audit law
// has teeth: skewing one entry of the baseline decision log — without
// touching any counter — must be caught by the bit-identical decision-log
// comparison across the metamorphic relations and shrunk to a repro of at
// most two domains.
func TestInjectedDecisionSkewCaughtAndShrunk(t *testing.T) {
	c := &Checker{mutate: func(r *experiment.Result) {
		if len(r.Decisions) > 0 {
			r.Decisions[len(r.Decisions)-1].Chosen++
		}
	}}
	var sc Scenario
	found := false
	for seed := uint64(1); seed < 128 && !found; seed++ {
		if s := Generate(seed); s.Mode == "dynamic" {
			// Any dynamic scenario whose baseline run records at least one
			// decision will do — the mutation is a no-op otherwise.
			if c.Check(s) != nil {
				sc, found = s, true
			}
		}
	}
	if !found {
		t.Fatal("no dynamic scenario with a non-empty decision log in 128 seeds")
	}
	err := c.Check(sc)
	if err == nil {
		t.Fatal("injected decision skew was not caught")
	}
	if !strings.Contains(err.Error(), "decision") {
		t.Fatalf("error does not name the decision log: %v", err)
	}
	fails := func(s Scenario) bool { return c.Check(s) != nil }
	shrunk := Shrink(sc, fails, 80)
	if len(shrunk.VMs) > 2 {
		t.Fatalf("shrunk repro still has %d domains, want <= 2", len(shrunk.VMs))
	}
	if !fails(shrunk) {
		t.Fatal("shrunk scenario no longer reproduces the failure")
	}
}

// TestInjectedRequestLeakCaught proves the request conservation law has
// teeth: silently "losing" one request between the softirq and the socket
// (Delivered bumped without a matching consume) must break the pipeline
// ledger equalities.
func TestInjectedRequestLeakCaught(t *testing.T) {
	c := &Checker{post: func(pr *experiment.PostRun) error {
		for i := range pr.Result.VMs {
			if rq := pr.Result.VMs[i].Requests; rq != nil {
				rq.Delivered++
				break
			}
		}
		return Conservation(pr)
	}}
	var sc Scenario
	found := false
	for seed := uint64(1); seed < 128 && !found; seed++ {
		s := Generate(seed)
		for _, vm := range s.VMs {
			if vm.ServeRate > 0 {
				sc, found = s, true
				break
			}
		}
	}
	if !found {
		t.Fatal("generator produced no serving scenario in 128 seeds")
	}
	err := c.Check(sc)
	if err == nil {
		t.Fatal("injected request leak was not caught")
	}
	if !strings.Contains(err.Error(), "requests") {
		t.Fatalf("error does not name the request ledger: %v", err)
	}
}

// TestIOSetupsConserve: every shape of the paper's I/O scenario (Table 4c,
// Figure 9 and Table 1's mixed-I/O column) runs through experiment.Run
// under the conservation laws, with the observer attached so its residency
// and span ledgers are checked too.
func TestIOSetupsConserve(t *testing.T) {
	const dur = 200 * simtime.Millisecond
	off := core.DefaultConfig()
	off.Mode = core.ModeOff
	vturbo := experiment.IOSetup("tcp", true, off, dur)
	vturbo.Rival = experiment.RivalVTurbo
	setups := []experiment.Setup{vturbo}
	for _, proto := range []string{"udp", "tcp"} {
		for _, mixed := range []bool{false, true} {
			for _, cc := range []core.Config{off, core.StaticConfig(1)} {
				setups = append(setups, experiment.IOSetup(proto, mixed, cc, dur))
			}
		}
	}
	for _, s := range setups {
		s.PostCheck = Conservation
		s.Obs = &obs.Config{}
		res, err := experiment.Run(s)
		if err != nil {
			t.Fatalf("%s mixed=%v mode=%v rival=%q: %v", s.VMs[0].IPerf, len(s.VMs) > 1, s.Core.Mode, s.Rival, err)
		}
		if m := res.VM("vm1").IPerf; m == nil || m.Mbps <= 0 {
			t.Fatalf("%s mixed=%v mode=%v rival=%q: no iPerf read-out: %+v", s.VMs[0].IPerf, len(s.VMs) > 1, s.Core.Mode, s.Rival, m)
		}
	}
}

// TestGenerateDeterministic: the same seed always yields the same scenario
// (fixtures would be worthless otherwise).
func TestGenerateDeterministic(t *testing.T) {
	for seed := uint64(0); seed < 32; seed++ {
		a, b := Generate(seed), Generate(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: %+v != %+v", seed, a, b)
		}
	}
}

// TestGenerateProducesValidSetups: every generated scenario must pass the
// harness's own validation (no pin out of range, valid apps, sound config).
func TestGenerateProducesValidSetups(t *testing.T) {
	for seed := uint64(100); seed < 140; seed++ {
		s, err := Generate(seed).ToSetup()
		if err == nil {
			err = s.Validate()
		}
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestFixtureRoundTrip: a fixture survives the write/load cycle intact and
// its scenario replays.
func TestFixtureRoundTrip(t *testing.T) {
	dir := t.TempDir()
	f := &Fixture{
		Seed:     42,
		Err:      "relation \"domain-relabel\" violated: hv counters differ",
		Original: Generate(42),
		Shrunk:   Generate(7),
	}
	path, err := WriteFixture(dir, f)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Dir(path) != dir {
		t.Fatalf("fixture written to %s, want under %s", path, dir)
	}
	loaded, err := LoadFixture(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f, loaded) {
		t.Fatalf("round trip changed the fixture:\n%+v\n%+v", f, loaded)
	}
	if err := ReplayFixture(loaded); err != nil {
		t.Fatalf("healthy fixture scenario fails on replay: %v", err)
	}
}

package check

import (
	"os"
	"reflect"
	"testing"

	"github.com/microslicedcore/microsliced/internal/experiment"
)

// TestRecoveryConformanceSuite is the recovery harness's entry point:
// generated harsh-fault scenarios with the supervisor armed, each checked
// against the convergence laws (conservation at end of run, no post-deadline
// starvation, drained lost-IPI ledger, bounded repairs/finite MTTR) and for
// bit-identical reruns. RECOVERY_COUNT/RECOVERY_SEED override; the nightly
// CI job runs 500 with a rotating seed. Failures are shrunk and dumped under
// CHECK_FIXTURE_DIR when set.
func TestRecoveryConformanceSuite(t *testing.T) {
	opt := Options{
		Seed:       envUint("RECOVERY_SEED", 1),
		Count:      envInt("RECOVERY_COUNT", 60),
		FixtureDir: os.Getenv("CHECK_FIXTURE_DIR"),
	}
	if testing.Verbose() {
		opt.Progress = os.Stderr
	}
	rep, err := RunRecoverySuite(opt)
	if err != nil {
		t.Fatalf("recovery suite: %v", err)
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

// TestGenerateRecoveryDeterministic: the same seed always yields the same
// recovery scenario.
func TestGenerateRecoveryDeterministic(t *testing.T) {
	for seed := uint64(0); seed < 32; seed++ {
		a, b := GenerateRecovery(seed), GenerateRecovery(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: %+v != %+v", seed, a, b)
		}
	}
}

// TestGenerateRecoveryShaped: every generated scenario is recovery-shaped
// (quiesce point, deadline inside the run, supervisor armed) and lowers to
// a valid Setup with an in-range fault plan.
func TestGenerateRecoveryShaped(t *testing.T) {
	for seed := uint64(50); seed < 90; seed++ {
		sc := GenerateRecovery(seed)
		if !recoveryShaped(sc) {
			t.Fatalf("seed %d: generated scenario is not recovery-shaped: %+v", seed, sc)
		}
		s, err := sc.ToSetup()
		if err == nil {
			err = s.Validate()
		}
		if err != nil {
			t.Fatalf("seed %d: lowered setup invalid: %v", seed, err)
		}
		if s.Recovery == nil || s.Faults == nil {
			t.Fatalf("seed %d: ToSetup dropped the recovery wiring", seed)
		}
		if off := s.Faults.OfflinePCPUs + s.Faults.PermanentOfflinePCPUs; off > s.PCPUs-3 {
			t.Fatalf("seed %d: %d of %d pCPUs unplugged, want >= 3 survivors", seed, off, s.PCPUs)
		}
	}
}

// TestRecoveryCheckRejectsMalformedScenario: CheckRecovery refuses
// scenarios without the faults→quiesce→deadline shape instead of
// vacuously passing them.
func TestRecoveryCheckRejectsMalformedScenario(t *testing.T) {
	sc := GenerateRecovery(1)
	for name, breakIt := range map[string]func(*Scenario){
		"no-recovery": func(s *Scenario) { s.Recovery = nil },
		"no-faults":   func(s *Scenario) { s.Faults = nil },
		"no-quiesce":  func(s *Scenario) { s.Faults.QuiesceAtMs = 0 },
		"deadline-past-end": func(s *Scenario) {
			s.DurationMs = s.Faults.QuiesceAtMs + s.Recovery.DeadlineMs - 1
		},
	} {
		c := sc.clone()
		breakIt(&c)
		if recoveryShaped(c) {
			t.Errorf("%s: scenario still reports recovery-shaped", name)
		}
		if err := CheckRecovery(c); err == nil {
			t.Errorf("%s: CheckRecovery accepted a malformed scenario", name)
		}
	}
}

// TestRecoveryInjectedBugCaught: the recovery harness has teeth too — a
// mutation that corrupts the repair log must fail the rerun comparison.
func TestRecoveryInjectedBugCaught(t *testing.T) {
	c := &Checker{mutate: func(r *experiment.Result) {
		r.RepairCount++
	}}
	if err := c.CheckRecovery(GenerateRecovery(2)); err == nil {
		t.Fatal("corrupted repair count was not caught")
	}
}

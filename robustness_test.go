package microsliced

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"github.com/microslicedcore/microsliced/internal/experiment"
	"github.com/microslicedcore/microsliced/internal/rng"
)

// TestRandomScenariosSurviveAudit is the property test: any randomly drawn
// *valid* scenario simulates without error and with a clean invariant audit.
func TestRandomScenariosSurviveAudit(t *testing.T) {
	apps := Workloads()
	r := rng.New(0xbadc0de)
	for i := 0; i < 8; i++ {
		pcpus := 2 + int(r.Int63n(3)) // 2..4
		s := Scenario{
			PCPUs:   pcpus,
			Seconds: 0.05,
			Audit:   true,
		}
		nvm := 1 + int(r.Int63n(2))
		for v := 0; v < nvm; v++ {
			app := apps[r.Int63n(int64(len(apps)))]
			s.VMs = append(s.VMs, VM{
				Name:  fmt.Sprintf("vm%d", v),
				App:   app,
				VCPUs: 2 + int(r.Int63n(3)),
				Seed:  uint64(r.Int63n(1 << 30)),
				Disk:  true, // harmless for non-disk apps, required by fileserver
			})
		}
		switch r.Int63n(3) {
		case 0:
			s.Mode = Off
		case 1:
			s.Mode = Static
			s.StaticCores = 1 + int(r.Int63n(int64(pcpus)))
		case 2:
			s.Mode = Dynamic
		}
		if r.Bool(0.5) {
			s.Faults = &FaultPlan{
				Seed:          uint64(i + 1),
				OfflinePCPUs:  int(r.Int63n(int64(pcpus))), // < pcpus, keeps one online
				IPIDelayProb:  0.2,
				IPIDelayMaxUs: 100,
				IPIDropProb:   0.1,
				TickJitterUs:  500,
			}
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("scenario %d: generator produced an invalid scenario: %v", i, err)
		}
		res, err := Simulate(s)
		if err != nil {
			t.Fatalf("scenario %d (%+v): %v", i, s, err)
		}
		if len(res.InvariantViolations) != 0 {
			t.Fatalf("scenario %d: %d invariant violations, first: %s",
				i, len(res.InvariantViolations), res.InvariantViolations[0])
		}
	}
}

// TestValidateTypedErrors checks every rejection is a *ScenarioError naming
// the offending field.
func TestValidateTypedErrors(t *testing.T) {
	cases := []struct {
		name  string
		s     Scenario
		field string
	}{
		{"no-vms", Scenario{}, "VMs"},
		{"negative-pcpus", Scenario{PCPUs: -1, VMs: []VM{{App: "exim"}}}, "PCPUs"},
		{"negative-seconds", Scenario{Seconds: -1, VMs: []VM{{App: "exim"}}}, "Seconds"},
		{"negative-vcpus", Scenario{VMs: []VM{{App: "exim", VCPUs: -3}}}, "VMs[0].VCPUs"},
		{"unknown-app", Scenario{VMs: []VM{{App: "no-such-app"}}}, "VMs[0].App"},
		{"unknown-mode", Scenario{Mode: "turbo", VMs: []VM{{App: "exim"}}}, "Mode"},
		{"negative-static", Scenario{Mode: Static, StaticCores: -1, VMs: []VM{{App: "exim"}}}, "StaticCores"},
		{"static-over-host", Scenario{PCPUs: 4, Mode: Static, StaticCores: 5, VMs: []VM{{App: "exim"}}}, "StaticCores"},
		{"unknown-rival", Scenario{Rival: "zen5", VMs: []VM{{App: "exim"}}}, "Rival"},
		{"rival-with-mode", Scenario{Rival: "vturbo", Mode: Dynamic, VMs: []VM{{App: "exim"}}}, "Rival"},
		{"bad-fault-prob", Scenario{VMs: []VM{{App: "exim"}},
			Faults: &FaultPlan{IPIDropProb: 2}}, "Faults"},
		{"fault-unplugs-host", Scenario{PCPUs: 2, VMs: []VM{{App: "exim"}},
			Faults: &FaultPlan{OfflinePCPUs: 2}}, "Faults.OfflinePCPUs"},
		// Shapes the engine used to reject mid-build with an untyped error,
		// or (NaN) run silently with the default duration.
		{"infinite-seconds", Scenario{Seconds: math.Inf(1), VMs: []VM{{App: "exim"}}}, "Seconds"},
		{"overflowing-seconds", Scenario{Seconds: 1e12, VMs: []VM{{App: "exim"}}}, "Seconds"},
		{"nan-seconds", Scenario{Seconds: math.NaN(), VMs: []VM{{App: "exim"}}}, "Seconds"},
		{"nan-slo", Scenario{VMs: []VM{{App: "exim",
			Serve: &ServeConfig{RatePerSec: 1000, SLOMs: math.NaN()}}}}, "VMs[0].Serve.SLOMs"},
		{"pcpus-over-max", Scenario{PCPUs: 65, VMs: []VM{{App: "exim"}}}, "PCPUs"},
		{"quiesce-past-end", Scenario{Seconds: 0.01, VMs: []VM{{App: "exim"}},
			Faults: &FaultPlan{QuiesceAtMs: 50}}, "Faults.QuiesceAtMs"},
		{"nan-fault-prob", Scenario{VMs: []VM{{App: "exim"}},
			Faults: &FaultPlan{IPIDropProb: math.NaN()}}, "Faults"},
		{"nan-stall-factor", Scenario{VMs: []VM{{App: "exim"}},
			Faults: &FaultPlan{LockStallProb: 0.5, LockStallFactor: math.NaN()}}, "Faults"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.s.Validate()
			if err == nil {
				t.Fatal("invalid scenario accepted")
			}
			var se *ScenarioError
			if !errors.As(err, &se) {
				t.Fatalf("error is %T, want *ScenarioError: %v", err, err)
			}
			if se.Field != c.field {
				t.Fatalf("blamed field %q, want %q (%v)", se.Field, c.field, err)
			}
			// Simulate must refuse the same scenario up front.
			if _, serr := Simulate(c.s); serr == nil {
				t.Fatal("Simulate ran an invalid scenario")
			}
			// A scenario that lowers must fail Run's own validation, which
			// runs before any world is built.
			if setup, lerr := c.s.setup(); lerr == nil {
				var sete *experiment.SetupError
				if _, rerr := experiment.Run(setup); !errors.As(rerr, &sete) {
					t.Fatalf("experiment.Run on the lowered Setup: %v, want a *SetupError", rerr)
				}
			}
		})
	}
	ok := Scenario{VMs: []VM{{App: "exim"}}, Mode: Static, StaticCores: 2}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}
}

// FuzzScenarioValidate: Validate must never panic, and every rejection must
// be a typed *ScenarioError.
func FuzzScenarioValidate(f *testing.F) {
	f.Add(12, 12, "exim", "static", 2, "", 3.0, uint64(1), 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
	f.Add(-1, -1, "", "off", -1, "vturbo", -1.0, uint64(0), -1, 2.0, -1.0, 0.5, 1e9, 0.5, 0.0)
	f.Add(2, 0, "dedup", "dynamic", 99, "zen5", 0.0, uint64(7), 5, 0.3, 200.0, 0.2, 500.0, 0.1, 8.0)
	f.Add(0, 3, "no-such-app", "", 0, "cosched", math.NaN(), uint64(3), 1, math.Inf(1), math.NaN(), -0.0, -500.0, 1.0, 0.5)
	f.Fuzz(func(t *testing.T, pcpus, vcpus int, app, mode string, static int,
		rival string, seconds float64, seed uint64, offline int,
		dropProb, delayUs, delayProb, jitterUs, stallProb, stallFactor float64) {
		s := Scenario{
			PCPUs:       pcpus,
			VMs:         []VM{{App: app, VCPUs: vcpus, Seed: seed}},
			Mode:        Mode(mode),
			StaticCores: static,
			Rival:       rival,
			Seconds:     seconds,
			Faults: &FaultPlan{
				Seed:            seed,
				OfflinePCPUs:    offline,
				IPIDropProb:     dropProb,
				IPIDelayProb:    delayProb,
				IPIDelayMaxUs:   delayUs,
				TickJitterUs:    jitterUs,
				LockStallProb:   stallProb,
				LockStallFactor: stallFactor,
			},
		}
		if err := s.Validate(); err != nil {
			var se *ScenarioError
			if !errors.As(err, &se) {
				t.Fatalf("Validate returned %T, want *ScenarioError: %v", err, err)
			}
			if se.Field == "" || se.Reason == "" {
				t.Fatalf("ScenarioError missing field/reason: %+v", se)
			}
		}
	})
}

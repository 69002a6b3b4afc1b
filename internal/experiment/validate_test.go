package experiment

import (
	"errors"
	"math"
	"testing"

	"github.com/microslicedcore/microsliced/internal/core"
	"github.com/microslicedcore/microsliced/internal/fault"
	"github.com/microslicedcore/microsliced/internal/hv"
	"github.com/microslicedcore/microsliced/internal/recovery"
	"github.com/microslicedcore/microsliced/internal/simtime"
	"github.com/microslicedcore/microsliced/internal/workload"
)

// TestSetupValidateFields: each rule reports the path of the field it
// rejects, and Run fails with the same *SetupError before building a world.
func TestSetupValidateFields(t *testing.T) {
	base := func() Setup { return corunSetup("exim", offConfig(), quick) }
	cases := []struct {
		name  string
		edit  func(*Setup)
		field string
	}{
		{"no-vms", func(s *Setup) { s.VMs = nil }, "VMs"},
		{"pcpus-over-max", func(s *Setup) { s.PCPUs = hv.MaxPCPUs + 1 }, "PCPUs"},
		{"hv-tick", func(s *Setup) { c := hv.DefaultConfig(); c.Tick = 0; s.HVConfig = &c }, "HVConfig.Tick"},
		{"negative-duration", func(s *Setup) { s.Duration = -1 }, "Duration"},
		{"negative-weight", func(s *Setup) { s.VMs[1].Weight = -1 }, "VMs[1].Weight"},
		{"empty-app", func(s *Setup) { s.VMs[0].App = "" }, "VMs[0].App"},
		{"iperf-proto", func(s *Setup) { s.VMs[0].IPerf = "sctp" }, "VMs[0].IPerf"},
		{"pin-off-host", func(s *Setup) { s.VMs[0].Pins = []int{0, DefaultPCPUs} }, "VMs[0].Pins[1]"},
		{"serve-rate", func(s *Setup) { s.VMs[0].Serve = &ServeSpec{} }, "VMs[0].Serve.RatePerSec"},
		{"serve-profile", func(s *Setup) {
			s.VMs[0].Serve = &ServeSpec{RatePerSec: 1000, Profile: &workload.ServeProfile{}}
		}, "VMs[0].Serve.Profile"},
		{"serve-profile-nan", func(s *Setup) {
			prof := workload.DefaultServeProfile()
			prof.LockProb = math.NaN()
			s.VMs[0].Serve = &ServeSpec{RatePerSec: 1000, Profile: &prof}
		}, "VMs[0].Serve.Profile"},
		{"static-over-host", func(s *Setup) { s.PCPUs = 2; s.Core = core.StaticConfig(3) }, "Core.StaticCores"},
		{"rival-with-mode", func(s *Setup) { s.Rival = RivalVTurbo; s.Core = core.DefaultConfig() }, "Rival"},
		{"unknown-rival", func(s *Setup) { s.Rival = "zen5" }, "Rival"},
		{"fault-prob", func(s *Setup) { s.Faults = &fault.Config{IPIDropProb: 2} }, "Faults"},
		{"fault-capacity", func(s *Setup) { s.PCPUs = 2; s.Faults = &fault.Config{PermanentOfflinePCPUs: 2} }, "Faults.OfflinePCPUs"},
		{"quiesce-past-end", func(s *Setup) { s.Faults = &fault.Config{QuiesceAt: 2 * quick} }, "Faults.QuiesceAt"},
		{"recovery-interval", func(s *Setup) { s.Recovery = &recovery.Config{Interval: -1} }, "Recovery.Interval"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := base()
			c.edit(&s)
			_, runErr := Run(s)
			for _, err := range []error{s.Validate(), runErr} {
				var se *SetupError
				if !errors.As(err, &se) {
					t.Fatalf("got %v, want a *SetupError", err)
				}
				if se.Field != c.field {
					t.Fatalf("blamed %q, want %q (%v)", se.Field, c.field, err)
				}
			}
		})
	}
	// A stream-only VM needs no App.
	s := IOSetup("tcp", false, offConfig(), quick)
	if err := s.Validate(); err != nil {
		t.Fatalf("stream-only VM rejected: %v", err)
	}
}

// TestSetupValidateAllocatesNothing: a valid Setup is checked without
// formatting any field path, so Run's setup cost stays flat.
func TestSetupValidateAllocatesNothing(t *testing.T) {
	s := corunSetup("exim", core.StaticConfig(2), quick)
	s.Faults = &fault.Config{IPIDropProb: 0.1, QuiesceAt: quick / 2}
	s.VMs[0].Serve = &ServeSpec{RatePerSec: 1000}
	if n := testing.AllocsPerRun(100, func() {
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Validate allocated %v times per call, want 0", n)
	}
}

// FuzzSetupValidate: Validate never panics, and every rejection is a
// *SetupError naming a field. It reaches the engine-only fields the public
// API cannot set: Weight, IPerf, HVConfig and Serve.Profile.
func FuzzSetupValidate(f *testing.F) {
	f.Add(12, 12, 0, "exim", "", 0, int64(0), int64(0), 0.2, int64(0), uint8(0), 0, "", int64(0), 0, int64(0), int64(0))
	f.Add(-1, -1, -5, "", "sctp", -1, int64(-1), int64(-1), 2.0, int64(-1), uint8(9), -1, "zen5", int64(-1), -1, int64(-1), int64(-1))
	f.Add(2, 1, 256, "", "udp", 1000, int64(5e6), int64(2e4), 0.5, int64(1e7), uint8(1), 3, "vturbo", int64(1e9), 2, int64(2e9), int64(1e6))
	f.Add(65, 0, 0, "dedup", "tcp", 500, int64(0), int64(0), 0.0, int64(10), uint8(2), 0, "cosched", int64(1e8), 0, int64(5e7), int64(0))
	f.Fuzz(func(t *testing.T, pcpus, vcpus, weight int, app, iperf string, rate int,
		slo, svcMean int64, lockProb float64, tick int64, mode uint8, static int,
		rival string, dur int64, offline int, quiesce, interval int64) {
		hc := hv.DefaultConfig()
		hc.Tick = simtime.Duration(tick)
		if tick == 0 {
			hc.Tick = hv.DefaultConfig().Tick
		}
		vm := VMSpec{Name: "vm0", App: app, VCPUs: vcpus, Weight: weight, IPerf: iperf, Pins: []int{pcpus - 1, -1}}
		if rate != 0 {
			prof := workload.DefaultServeProfile()
			prof.ServiceMean = simtime.Duration(svcMean)
			prof.LockProb = lockProb
			vm.Serve = &ServeSpec{RatePerSec: rate, SLO: simtime.Duration(slo), Profile: &prof}
		}
		s := Setup{
			PCPUs:    pcpus,
			VMs:      []VMSpec{vm},
			Core:     core.Config{Mode: core.Mode(mode), StaticCores: static},
			Duration: simtime.Duration(dur),
			HVConfig: &hc,
			Rival:    Rival(rival),
			Faults:   &fault.Config{OfflinePCPUs: offline, QuiesceAt: simtime.Duration(quiesce), IPIDropProb: lockProb},
			Recovery: &recovery.Config{Interval: simtime.Duration(interval)},
		}
		if err := s.Validate(); err != nil {
			var se *SetupError
			if !errors.As(err, &se) {
				t.Fatalf("Validate returned %T, want *SetupError: %v", err, err)
			}
			if se.Field == "" || se.Reason == "" {
				t.Fatalf("SetupError missing field/reason: %+v", se)
			}
		}
	})
}

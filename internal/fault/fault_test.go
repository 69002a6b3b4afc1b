package fault

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"github.com/microslicedcore/microsliced/internal/simtime"
)

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"zero", Config{}, true},
		{"full", Config{Seed: 1, OfflinePCPUs: 2, IPIDelayProb: 0.5,
			IPIDelayMax: simtime.Millisecond, IPIDropProb: 0.1,
			TickJitter: simtime.Millisecond, LockStallProb: 0.2, LockStallFactor: 4}, true},
		{"prob>1", Config{IPIDropProb: 1.5}, false},
		{"prob<0", Config{IPIDelayProb: -0.1}, false},
		{"negative-offline", Config{OfflinePCPUs: -1}, false},
		{"delay-without-max", Config{IPIDelayProb: 0.5}, false},
		{"negative-jitter", Config{TickJitter: -1}, false},
		{"stall-factor<1", Config{LockStallProb: 0.5, LockStallFactor: 0.5}, false},
		{"nan-prob", Config{IPIDropProb: math.NaN()}, false},
		{"nan-stall-factor", Config{LockStallProb: 0.5, LockStallFactor: math.NaN()}, false},
	}
	for _, c := range cases {
		err := c.cfg.Validate()
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: invalid config accepted", c.name)
		}
	}
}

func TestEnabled(t *testing.T) {
	if (Config{}).Enabled() {
		t.Fatal("zero config reports enabled")
	}
	if !(Config{OfflinePCPUs: 1}).Enabled() {
		t.Fatal("hotplug config reports disabled")
	}
	if !(Config{TickJitter: simtime.Millisecond}).Enabled() {
		t.Fatal("jitter config reports disabled")
	}
}

func TestPlanDeterministicSchedule(t *testing.T) {
	cfg := Config{Seed: 42, OfflinePCPUs: 3}
	a, err := New(cfg, 12, 3*simtime.Second)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(cfg, 12, 3*simtime.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Hotplug, b.Hotplug) {
		t.Fatalf("same config, different hotplug schedules:\n%v\n%v", a.Hotplug, b.Hotplug)
	}
	if len(a.Hotplug) != 3 {
		t.Fatalf("want 3 hotplug events, got %d", len(a.Hotplug))
	}
	seen := map[int]bool{}
	for _, ev := range a.Hotplug {
		if ev.PCPU == 0 {
			t.Fatal("plan unplugs pCPU 0")
		}
		if seen[ev.PCPU] {
			t.Fatalf("pCPU %d unplugged twice", ev.PCPU)
		}
		seen[ev.PCPU] = true
		if ev.On <= ev.Off {
			t.Fatalf("replug %v not after unplug %v", ev.On, ev.Off)
		}
		if ev.Off <= 0 || ev.On >= simtime.Time(3*simtime.Second) {
			t.Fatalf("hotplug window [%v, %v] outside the run", ev.Off, ev.On)
		}
	}
}

func TestPlanRejectsTotalCapacityLoss(t *testing.T) {
	if _, err := New(Config{OfflinePCPUs: 2}, 2, simtime.Second); err == nil {
		t.Fatal("plan accepted unplugging all-but-zero cores of a 2-core host")
	}
}

func TestSeedChangesSchedule(t *testing.T) {
	a, _ := New(Config{Seed: 1, OfflinePCPUs: 2}, 12, 3*simtime.Second)
	b, _ := New(Config{Seed: 2, OfflinePCPUs: 2}, 12, 3*simtime.Second)
	if reflect.DeepEqual(a.Hotplug, b.Hotplug) {
		t.Fatal("different seeds produced identical hotplug schedules")
	}
}

func TestValidateHarshFields(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"permanent", Config{PermanentOfflinePCPUs: 2}, true},
		{"negative-permanent", Config{PermanentOfflinePCPUs: -1}, false},
		{"storms", Config{Storms: 2}, true},
		{"negative-storms", Config{Storms: -1}, false},
		{"negative-storm-len", Config{Storms: 1, StormLen: -1}, false},
		{"lose-with-drop", Config{IPIDropProb: 0.1, LoseIPIs: true}, true},
		{"lose-with-storm", Config{Storms: 1, LoseIPIs: true}, true},
		{"lose-without-source", Config{LoseIPIs: true}, false},
		{"negative-quiesce", Config{QuiesceAt: -1}, false},
	}
	for _, c := range cases {
		err := c.cfg.Validate()
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok {
			var ce *ConfigError
			if err == nil {
				t.Errorf("%s: invalid config accepted", c.name)
			} else if !errors.As(err, &ce) {
				t.Errorf("%s: error is not a *ConfigError: %v", c.name, err)
			}
		}
	}
}

// TestNewRejectsDegenerateDuration is the regression for the replug-clamp
// bug: New used to accept a zero-length run and emit a degenerate schedule
// (unplug and replug both at t=0, which the sorted walk applied as an
// unintended permanent loss). It must now reject the shape with a typed
// error.
func TestNewRejectsDegenerateDuration(t *testing.T) {
	_, err := New(Config{OfflinePCPUs: 1}, 4, 0)
	var ce *ConfigError
	if !errors.As(err, &ce) {
		t.Fatalf("want *ConfigError for zero duration, got %v", err)
	}
	if ce.Field != "Duration" {
		t.Fatalf("error blames %q, want Duration", ce.Field)
	}
	if _, err := New(Config{}, 4, 0); err != nil {
		t.Fatalf("disabled config on zero duration must pass, got %v", err)
	}
}

func TestNewRejectsQuiescePastRunEnd(t *testing.T) {
	_, err := New(Config{Storms: 1, QuiesceAt: simtime.Second}, 4, simtime.Second)
	var ce *ConfigError
	if !errors.As(err, &ce) || ce.Field != "QuiesceAt" {
		t.Fatalf("want *ConfigError on QuiesceAt, got %v", err)
	}
	if _, err := New(Config{Storms: 1, QuiesceAt: simtime.Second / 2}, 4, simtime.Second); err != nil {
		t.Fatalf("mid-run quiesce rejected: %v", err)
	}
}

func TestPermanentEventsNeverReplug(t *testing.T) {
	p, err := New(Config{Seed: 9, OfflinePCPUs: 1, PermanentOfflinePCPUs: 2}, 6, simtime.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Hotplug) != 3 {
		t.Fatalf("want 3 hotplug events, got %d", len(p.Hotplug))
	}
	var perm int
	seen := map[int]bool{}
	for _, ev := range p.Hotplug {
		if ev.PCPU == 0 {
			t.Fatal("plan unplugs pCPU 0")
		}
		if seen[ev.PCPU] {
			t.Fatalf("pCPU %d unplugged twice", ev.PCPU)
		}
		seen[ev.PCPU] = true
		if ev.Permanent {
			perm++
		} else if ev.On <= ev.Off {
			t.Fatalf("temporary event replugs at %v, before unplug %v", ev.On, ev.Off)
		}
	}
	if perm != 2 {
		t.Fatalf("want 2 permanent events, got %d", perm)
	}
}

func TestStormWindowsRespectQuiesce(t *testing.T) {
	const quiesce = 300 * simtime.Millisecond
	p, err := New(Config{Seed: 4, Storms: 3, QuiesceAt: quiesce}, 4, simtime.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Storms) != 3 {
		t.Fatalf("want 3 storm windows, got %d", len(p.Storms))
	}
	for i, w := range p.Storms {
		if w.Start >= w.End {
			t.Errorf("storm %d window [%v, %v) is empty or inverted", i, w.Start, w.End)
		}
		if w.End > simtime.Time(quiesce) {
			t.Errorf("storm %d ends at %v, past the quiesce point %v", i, w.End, quiesce)
		}
		if i > 0 && w.Start < p.Storms[i-1].Start {
			t.Errorf("storm windows not sorted: %v before %v", p.Storms[i], p.Storms[i-1])
		}
	}
}

func TestHarshScheduleDeterministic(t *testing.T) {
	cfg := Config{Seed: 5, PermanentOfflinePCPUs: 2, Storms: 2, IPIDropProb: 0.2, LoseIPIs: true}
	a, err := New(cfg, 8, simtime.Second)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := New(cfg, 8, simtime.Second)
	if !reflect.DeepEqual(a.Hotplug, b.Hotplug) || !reflect.DeepEqual(a.Storms, b.Storms) {
		t.Fatal("same config, different harsh schedules")
	}
}

package hv

import (
	"testing"

	"github.com/microslicedcore/microsliced/internal/simtime"
)

// countGuest computes forever and counts interrupts without allocating, so
// an allocation measured around it belongs to the hypervisor.
type countGuest struct{ intrs int }

func (g *countGuest) OnScheduled(now simtime.Time)                          {}
func (g *countGuest) OnDescheduled(now simtime.Time)                        {}
func (g *countGuest) OnInterrupt(now simtime.Time, vec Vector, data uint64) { g.intrs++ }
func (g *countGuest) RIP() uint64                                           { return 0x400000 }

// relayWorld runs two always-running vCPUs of one domain on two pCPUs and
// returns them once both are on a pCPU.
func relayWorld(t *testing.T) (*simtime.Clock, *Hypervisor, *Domain, [2]*VCPU, [2]*countGuest) {
	t.Helper()
	clock, h := setup(2)
	d := h.NewDomain("vm", nil)
	var vs [2]*VCPU
	var gs [2]*countGuest
	for i := range vs {
		gs[i] = &countGuest{}
		vs[i] = h.AddVCPU(d, gs[i])
	}
	d.IRQVCPU = 1
	h.Start()
	for _, v := range vs {
		h.Wake(v, false)
	}
	clock.RunUntil(time5ms())
	for _, v := range vs {
		if v.State() != StateRunning {
			t.Fatalf("%v not running", v)
		}
	}
	return clock, h, d, vs, gs
}

// TestVIPIRelayAllocFree: relaying a vIPI to a running vCPU — SendVIPI and
// the inject event it schedules — allocates nothing at steady state.
func TestVIPIRelayAllocFree(t *testing.T) {
	clock, h, _, vs, gs := relayWorld(t)
	cycle := func() {
		h.SendVIPI(vs[0], vs[1], VecResched, 7)
		clock.RunUntil(clock.Now() + 10*simtime.Microsecond)
	}
	for i := 0; i < 64; i++ {
		cycle()
	}
	if n := testing.AllocsPerRun(500, cycle); n != 0 {
		t.Fatalf("vIPI relay: %v allocs/op, want 0", n)
	}
	if want := 64 + 501; gs[1].intrs != want {
		t.Fatalf("target took %d interrupts, want %d", gs[1].intrs, want)
	}
}

// TestPIRQRelayAllocFree: a device interrupt routed through InjectPIRQ or
// InjectPIRQTo to a running vCPU allocates nothing at steady state.
func TestPIRQRelayAllocFree(t *testing.T) {
	clock, h, d, vs, gs := relayWorld(t)
	for _, tc := range []struct {
		name   string
		inject func()
		target *countGuest
	}{
		{"InjectPIRQ", func() { h.InjectPIRQ(d, VecNet, 42) }, gs[1]},
		{"InjectPIRQTo", func() { h.InjectPIRQTo(vs[0], VecDisk, 42) }, gs[0]},
	} {
		cycle := func() {
			tc.inject()
			clock.RunUntil(clock.Now() + 100*simtime.Microsecond)
		}
		for i := 0; i < 64; i++ {
			cycle()
		}
		before := tc.target.intrs
		if n := testing.AllocsPerRun(500, cycle); n != 0 {
			t.Fatalf("%s relay: %v allocs/op, want 0", tc.name, n)
		}
		if got := tc.target.intrs - before; got != 501 {
			t.Fatalf("%s: target took %d interrupts, want 501", tc.name, got)
		}
	}
}

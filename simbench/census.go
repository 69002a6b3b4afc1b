package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"math"
	"reflect"
	"sort"
	"unsafe"

	"github.com/microslicedcore/microsliced/internal/experiment"
	"github.com/microslicedcore/microsliced/internal/guest"
	"github.com/microslicedcore/microsliced/internal/hv"
	"github.com/microslicedcore/microsliced/internal/trace"
)

// readout is what the benchmark reads from a finished simulation world
// through Setup.PostCheck, beyond what experiment.Result carries.
type readout struct {
	Events       uint64 // simtime: events fired by the clock
	TraceRecords uint64 // hv: records emitted to the trace ring, all kinds
	Ops          uint64 // guest: Σ Thread.OpsDone
	LockAcquires uint64 // guest: Σ SpinLock.Acquisitions
	Spans        uint64 // obs: latency spans begun (0 without an observer)
}

// maxTraceKinds bounds the trace-kind walk; Buffer.Count is 0 past the
// last defined kind.
const maxTraceKinds = 64

func readOut(pr *experiment.PostRun) (readout, error) {
	h := pr.HV
	ro := readout{Events: h.Clock.Fired()}
	for k := 0; k < maxTraceKinds; k++ {
		ro.TraceRecords += h.Trace.Count(trace.Kind(k))
	}
	if pr.Obs != nil {
		ro.Spans, _, _ = pr.Obs.SpanCounts()
	}
	for _, d := range h.Domains() {
		if len(d.VCPUs) == 0 {
			continue
		}
		k, err := kernelOf(d.VCPUs[0])
		if err != nil {
			return ro, err
		}
		for _, t := range k.Threads() {
			ro.Ops += t.OpsDone
		}
		n, err := lockAcquisitions(k)
		if err != nil {
			return ro, err
		}
		ro.LockAcquires += n
	}
	return ro, nil
}

// experiment.PostRun does not expose the guest kernels experiment.Run
// builds, and the lock table of a kernel is unexported. The two helpers
// below follow those unexported fields by reflection, read only, and fail
// loudly if a refactor renames them.

// kernelOf returns the guest kernel behind a hypervisor vCPU through the
// guest vCPU's back-pointer.
func kernelOf(v *hv.VCPU) (*guest.Kernel, error) {
	gv, ok := v.Guest.(*guest.VCPU)
	if !ok {
		return nil, fmt.Errorf("d%dv%d: guest context is %T, not *guest.VCPU", v.DomID, v.Idx, v.Guest)
	}
	var k *guest.Kernel
	if err := readField(reflect.ValueOf(gv).Elem(), "k", &k); err != nil {
		return nil, err
	}
	return k, nil
}

// lockAcquisitions sums the acquisition counts of every lock a kernel has
// created.
func lockAcquisitions(k *guest.Kernel) (uint64, error) {
	var locks map[string]*guest.SpinLock
	if err := readField(reflect.ValueOf(k).Elem(), "locks", &locks); err != nil {
		return 0, err
	}
	var n uint64
	for _, l := range locks {
		n += l.Acquisitions
	}
	return n, nil
}

// readField copies struct field name of s into *dst, whose type must
// match the field's exactly.
func readField[T any](s reflect.Value, name string, dst *T) error {
	f := s.FieldByName(name)
	if !f.IsValid() {
		return fmt.Errorf("%s has no field %q", s.Type(), name)
	}
	if f.Type() != reflect.TypeOf(dst).Elem() {
		return fmt.Errorf("%s.%s is %s, want %s", s.Type(), name, f.Type(), reflect.TypeOf(dst).Elem())
	}
	*dst = *(*T)(unsafe.Pointer(f.UnsafeAddr()))
	return nil
}

// digestOf hashes one scenario's simulated outcome: per-VM units, yields,
// request ledger and guest latency counts; the hypervisor, controller and
// detector counters; the controller's decision log; and the readout. Two
// runs of one scenario must agree on it bit for bit.
func digestOf(res *experiment.Result, ro readout) [32]byte {
	h := sha256.New()
	fmt.Fprintf(h, "dur %d microavg %x violations %d\n", res.Duration, math.Float64bits(res.MicroAvg), len(res.Violations))
	for _, vm := range res.VMs {
		fmt.Fprintf(h, "vm %s app %s units %d yields %+v ran %d\n", vm.Name, vm.App, vm.Units, vm.Yields, vm.RanTotal)
		if vm.TLB != nil {
			fmt.Fprintf(h, "tlb %d %d\n", vm.TLB.Count(), vm.TLB.Max())
		}
		for _, class := range sortedKeys(vm.LockStat) {
			fmt.Fprintf(h, "lockstat %s %d %d\n", class, vm.LockStat[class].Count(), vm.LockStat[class].Max())
		}
		if r := vm.Requests; r != nil {
			fmt.Fprintf(h, "requests %+v\n", *r)
		}
	}
	hashCounters(h, "hv", res.HV)
	hashCounters(h, "core", res.Core)
	hashCounters(h, "symbol", res.SymbolHits)
	fmt.Fprintf(h, "decisions %d\n", res.DecisionCount)
	for _, d := range res.Decisions {
		fmt.Fprintf(h, "decision %+v\n", d)
	}
	fmt.Fprintf(h, "readout %+v\n", ro)
	var out [32]byte
	h.Sum(out[:0])
	return out
}

func hashCounters(h hash.Hash, tag string, m map[string]uint64) {
	for _, k := range sortedKeys(m) {
		fmt.Fprintf(h, "%s %s %d\n", tag, k, m[k])
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// census is the exact, deterministic tally over a workload's census
// rounds: the same workload and seed give the same census on any machine.
type census struct {
	Scenarios int
	SimNs     int64
	readout
	Dispatch, Yield, YieldPLE, YieldIPI, VIPI, MigrateMicro uint64
	TLBShootdowns, Units, Decisions, SymbolHits             uint64
	Offered, Completed, Dropped                             uint64
	microNs                                                 float64 // Σ MicroAvg × duration
	digest                                                  hash.Hash
}

func newCensus() *census { return &census{digest: sha256.New()} }

func (c *census) add(res *experiment.Result, ro readout, d [32]byte) {
	c.Scenarios++
	c.SimNs += int64(res.Duration)
	c.Events += ro.Events
	c.TraceRecords += ro.TraceRecords
	c.Ops += ro.Ops
	c.LockAcquires += ro.LockAcquires
	c.Spans += ro.Spans
	c.Dispatch += res.HV["sched.dispatch"]
	c.Yield += res.HV["yield.total"]
	c.YieldPLE += res.HV["yield.ple"]
	c.YieldIPI += res.HV["yield.ipi"]
	c.VIPI += res.HV["vipi.sent"]
	c.MigrateMicro += res.HV["migrate.micro"]
	c.Decisions += res.DecisionCount
	for _, n := range res.SymbolHits {
		c.SymbolHits += n
	}
	c.microNs += res.MicroAvg * float64(res.Duration)
	for _, vm := range res.VMs {
		c.Units += vm.Units
		if vm.TLB != nil {
			c.TLBShootdowns += vm.TLB.Count()
		}
		if r := vm.Requests; r != nil {
			c.Offered += r.Offered
			c.Completed += r.Completed
			c.Dropped += r.Dropped
		}
	}
	c.digest.Write(d[:])
}

func (c *census) simSeconds() float64 { return float64(c.SimNs) / 1e9 }

// perSimS returns n per simulated second of the census.
func (c *census) perSimS(n uint64) float64 {
	if c.SimNs == 0 {
		return 0
	}
	return float64(n) / c.simSeconds()
}

func (c *census) microAvg() float64 {
	if c.SimNs == 0 {
		return 0
	}
	return c.microNs / float64(c.SimNs)
}

func (c *census) sum() string { return fmt.Sprintf("%x", c.digest.Sum(nil)) }

// checkScenario applies the per-scenario correctness checks every run
// makes: the simulator reported no error (a panic or a livelock watchdog
// trip returns one), the invariant auditor found nothing, and the readout
// succeeded.
func checkScenario(res *experiment.Result, runErr, roErr error) error {
	if runErr != nil {
		return runErr
	}
	if roErr != nil {
		return fmt.Errorf("readout: %w", roErr)
	}
	if res == nil {
		return errors.New("no result")
	}
	if len(res.Violations) > 0 {
		return fmt.Errorf("%d invariant violations, first: %v", len(res.Violations), &res.Violations[0])
	}
	return nil
}

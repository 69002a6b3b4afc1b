package check

import (
	"fmt"
	"reflect"
	"sort"

	"github.com/microslicedcore/microsliced/internal/experiment"
	"github.com/microslicedcore/microsliced/internal/obs"
	"github.com/microslicedcore/microsliced/internal/recovery"
)

// Checker evaluates scenarios against the metamorphic relations and the
// post-run conservation laws. The zero value is ready to use.
type Checker struct {
	// mutate, when non-nil, corrupts the baseline Result before the variant
	// comparison — the fault-injection port tests use to prove a real
	// accounting bug cannot slip through the harness.
	mutate func(*experiment.Result)
	// post, when non-nil, replaces Conservation as every run's PostCheck.
	// The stage-skew injection test wraps Conservation with a deliberate
	// observer corruption to prove the stage conservation law has teeth.
	post func(*experiment.PostRun) error
}

// relation is one must-not-matter perturbation of a base scenario.
type relation struct {
	name    string
	perturb func(*experiment.Setup)
	// appliesTo, when non-nil, restricts the relation to scenarios it is
	// sound for (nil: every scenario).
	appliesTo func(Scenario) bool
}

// relations lists every perturbation applied to each scenario. Each one is
// an executable form of a promise the simulator makes: attaching the
// observer, enabling the trace ring or the auditor, running through the
// parallel runner instead of serially, and relabelling domain IDs must all
// leave the scheduling counters bit-identical.
var relations = []relation{
	{"serial-vs-batch", func(s *experiment.Setup) {}, nil},
	{"observer-off-vs-on", func(s *experiment.Setup) { s.Obs = &obs.Config{} }, nil},
	{"trace-off-vs-on", func(s *experiment.Setup) { s.HVConfig.TraceCapacity = 1 << 14 }, nil},
	{"audit-off-vs-on", func(s *experiment.Setup) { s.Audit = true }, nil},
	{"domain-relabel", func(s *experiment.Setup) {
		perm := make([]int, len(s.VMs))
		for i := range perm {
			perm[i] = len(perm) - 1 - i
		}
		s.DomRelabel = perm
	}, nil},
	// On a healthy run the supervisor detects nothing and repairs nothing,
	// so arming it must leave the schedule bit-identical — its periodic walk
	// only adds passive clock events, which shift event sequence numbers
	// uniformly without reordering anything. Restricted to fault-free
	// scenarios: under faults the supervisor is *supposed* to change the run.
	{"supervisor-off-vs-on", func(s *experiment.Setup) {
		s.Recovery = &recovery.Config{}
	}, func(sc Scenario) bool { return sc.Faults == nil }},
}

// Check runs sc serially as the baseline, then every metamorphic variant as
// one parallel batch (which makes the serial-vs-RunAll relation itself part
// of the experiment), and returns an error naming the first violated
// relation with a counter-level diff. Conservation runs inside every one of
// the runs via the PostCheck hook.
func (c *Checker) Check(sc Scenario) error {
	post := c.post
	if post == nil {
		post = Conservation
	}
	base, err := sc.ToSetup()
	if err != nil {
		return err
	}
	base.PostCheck = post
	baseRes, err := experiment.Run(base)
	if err != nil {
		return fmt.Errorf("base run: %w", err)
	}
	if c.mutate != nil {
		c.mutate(baseRes)
	}

	var variants []experiment.Setup
	var applied []string
	for _, rel := range relations {
		if rel.appliesTo != nil && !rel.appliesTo(sc) {
			continue
		}
		s, _ := sc.ToSetup() // lowered once already
		s.PostCheck = post
		rel.perturb(&s)
		variants = append(variants, s)
		applied = append(applied, rel.name)
	}
	results, err := experiment.RunAll(variants)
	if err != nil {
		return fmt.Errorf("variant run: %w", err)
	}
	for i, r := range results {
		if derr := diffResults(baseRes, r); derr != nil {
			return fmt.Errorf("relation %q violated: %w", applied[i], derr)
		}
	}
	return nil
}

// diffResults compares the deterministic portion of two Results — every
// scheduling counter, per-VM measurement and derived statistic, excluding
// the observability read-outs that only exist when the observer is on.
func diffResults(a, b *experiment.Result) error {
	if err := diffCounters("hv", a.HV, b.HV); err != nil {
		return err
	}
	if err := diffCounters("core", a.Core, b.Core); err != nil {
		return err
	}
	if err := diffCounters("symbols", a.SymbolHits, b.SymbolHits); err != nil {
		return err
	}
	if a.MicroAvg != b.MicroAvg {
		return fmt.Errorf("MicroAvg %v != %v", a.MicroAvg, b.MicroAvg)
	}
	if a.Duration != b.Duration {
		return fmt.Errorf("Duration %v != %v", a.Duration, b.Duration)
	}
	if !reflect.DeepEqual(a.FaultErrs, b.FaultErrs) {
		return fmt.Errorf("FaultErrs %v != %v", a.FaultErrs, b.FaultErrs)
	}
	if a.MTTR != b.MTTR {
		return fmt.Errorf("MTTR %v != %v", a.MTTR, b.MTTR)
	}
	if a.LostIPIs != b.LostIPIs {
		return fmt.Errorf("LostIPIs %d != %d", a.LostIPIs, b.LostIPIs)
	}
	if a.RepairCount != b.RepairCount {
		return fmt.Errorf("RepairCount %d != %d", a.RepairCount, b.RepairCount)
	}
	if !reflect.DeepEqual(a.Repairs, b.Repairs) {
		return fmt.Errorf("repair logs differ (%d vs %d events)", len(a.Repairs), len(b.Repairs))
	}
	if a.DecisionCount != b.DecisionCount {
		return fmt.Errorf("decision count %d != %d", a.DecisionCount, b.DecisionCount)
	}
	if !reflect.DeepEqual(a.Decisions, b.Decisions) {
		return fmt.Errorf("decision logs differ (%d vs %d entries)", len(a.Decisions), len(b.Decisions))
	}
	if len(a.VMs) != len(b.VMs) {
		return fmt.Errorf("VM count %d != %d", len(a.VMs), len(b.VMs))
	}
	for i := range a.VMs {
		av, bv := &a.VMs[i], &b.VMs[i]
		switch {
		case av.Units != bv.Units:
			return fmt.Errorf("VM %s Units %d != %d", av.Name, av.Units, bv.Units)
		case av.Yields != bv.Yields:
			return fmt.Errorf("VM %s Yields %+v != %+v", av.Name, av.Yields, bv.Yields)
		case av.RanTotal != bv.RanTotal:
			return fmt.Errorf("VM %s RanTotal %v != %v", av.Name, av.RanTotal, bv.RanTotal)
		case !reflect.DeepEqual(av.VCPURan, bv.VCPURan):
			return fmt.Errorf("VM %s VCPURan %v != %v", av.Name, av.VCPURan, bv.VCPURan)
		case !reflect.DeepEqual(av.TLB, bv.TLB):
			return fmt.Errorf("VM %s TLB histograms differ", av.Name)
		case !reflect.DeepEqual(av.LockStat, bv.LockStat):
			return fmt.Errorf("VM %s lock histograms differ", av.Name)
		case !reflect.DeepEqual(av.Requests, bv.Requests):
			return fmt.Errorf("VM %s request stats %+v != %+v", av.Name, av.Requests, bv.Requests)
		}
	}
	return nil
}

// diffCounters compares two counter maps over the union of their keys
// (absent == 0), reporting the first few mismatches by name.
func diffCounters(label string, a, b map[string]uint64) error {
	keys := make(map[string]struct{}, len(a)+len(b))
	for k := range a {
		keys[k] = struct{}{}
	}
	for k := range b {
		keys[k] = struct{}{}
	}
	names := make([]string, 0, len(keys))
	for k := range keys {
		names = append(names, k)
	}
	sort.Strings(names)
	var diffs []string
	for _, k := range names {
		if a[k] != b[k] {
			diffs = append(diffs, fmt.Sprintf("%s=%d vs %d", k, a[k], b[k]))
			if len(diffs) == 4 {
				break
			}
		}
	}
	if len(diffs) > 0 {
		return fmt.Errorf("%s counters differ: %v", label, diffs)
	}
	return nil
}

package check

import (
	"fmt"

	"github.com/microslicedcore/microsliced/internal/experiment"
	"github.com/microslicedcore/microsliced/internal/hv"
	"github.com/microslicedcore/microsliced/internal/rng"
	"github.com/microslicedcore/microsliced/internal/simtime"
)

// recoverySeedSalt decorrelates the recovery generator's stream from the
// plain Generate stream, so suite seed i draws unrelated scenarios in the
// two suites.
const recoverySeedSalt = 0x7ec04e87

// GenerateRecovery draws a random recovery-conformance scenario from seed:
// harsh faults (permanent capacity loss, IPI storms with outright loss, or
// both) that quiesce mid-run, a supervisor armed over them, and a
// convergence deadline sized so the detect→repair→converge contract is
// achievable. The same seed always yields the same scenario.
//
// The draw is deliberately conservative about oversubscription: the
// no-starvation law distinguishes wedged vCPUs from ordinary queueing
// delay, so the starve bound must exceed the worst legitimate wait
// (runqueue depth × NormalSlice) on the post-loss capacity.
func GenerateRecovery(seed uint64) Scenario {
	r := rng.New(seed ^ recoverySeedSalt)
	sc := Scenario{Seed: seed}
	sc.PCPUs = 4 + r.Intn(3) // 4..6

	if r.Bool(0.5) {
		sc.Mode = "off"
	} else {
		// Dynamic mode is excluded: its pool controller resizes the micro
		// pool on its own schedule, which is exactly what the supervisor's
		// capacity repairs do — the metamorphic laws would then blame the
		// supervisor for the controller's (legitimate) churn.
		sc.Mode = "static"
		sc.StaticCores = 1
	}
	sc.Stagger = r.Bool(0.5)
	sc.MicroRunqLimit = r.Intn(3)

	nvms := 1 + r.Intn(2) // 1..2
	for i := 0; i < nvms; i++ {
		// Weights stay symmetric on purpose: a low-weight domain's vCPUs
		// legitimately wait far longer than the runqueue-depth × slice
		// estimate below, which would make the starve bound fire on healthy
		// weighted fairness and keep the MTTR clock running forever.
		vm := VMSpec{
			App:   genApps[r.Intn(len(genApps))],
			VCPUs: 1 + r.Intn(3), // 1..3
			Seed:  r.Uint64(),
		}
		// Pins are likely: a vCPU pinned to a pCPU that dies permanently is
		// the starvation wedge the supervisor exists to break.
		if r.Bool(0.6) {
			vm.Pins = make([]int, vm.VCPUs)
			for j := range vm.Pins {
				vm.Pins[j] = r.Intn(sc.PCPUs+1) - 1
			}
		}
		sc.VMs = append(sc.VMs, vm)
	}

	f := &FaultSpec{Seed: r.Uint64()}
	permOff := 0
	switch r.Intn(3) {
	case 0: // permanent capacity loss only
		permOff = 1 + r.Intn(sc.PCPUs-3) // keep >= 3 pCPUs online
	case 1: // IPI storm with outright loss
		f.Storms = 1 + r.Intn(2)
		f.IPIDropProb = 0.1 + 0.2*r.Float64()
		f.LoseIPIs = true
		f.TickJitterUs = 1 + r.Intn(500)
	default: // both
		permOff = 1 + r.Intn(sc.PCPUs-3)
		f.Storms = 1
		f.IPIDropProb = 0.1 + 0.15*r.Float64()
		f.LoseIPIs = true
	}
	f.PermanentOffPCPUs = permOff
	if r.Bool(0.3) {
		f.LockStallProb = 0.02 + 0.1*r.Float64()
		f.LockStallFactor = 2 + 4*r.Float64()
	}

	// Size the time axis so convergence is achievable: the starve bound
	// clears the worst legitimate queueing delay on post-loss capacity, the
	// deadline leaves room for detection (one starve bound) plus the repair
	// escalation ladder, and the run extends past quiesce+deadline so the
	// end state is actually checked.
	// Normal-pool capacity after the loss: micro cores only host transient
	// critical-section work, so the surviving normal cores carry the
	// runqueues (worst case the dead cores all come out of the normal pool).
	normal := sc.PCPUs - permOff - sc.StaticCores
	if normal < 1 {
		normal = 1
	}
	total := 0
	for _, vm := range sc.VMs {
		total += vm.VCPUs
	}
	perQ := (total + normal - 1) / normal
	legitMs := perQ * 30 // NormalSlice is 30ms
	starve := legitMs + 15 + r.Intn(16)
	deadline := starve + 20 + r.Intn(11)
	quiesce := 20 + r.Intn(21)
	f.QuiesceAtMs = quiesce
	sc.DurationMs = quiesce + deadline + 10 + r.Intn(11)
	sc.Faults = f
	sc.Recovery = &RecoverySpec{
		IntervalMs:    2,
		StarveBoundMs: starve,
		DeadlineMs:    deadline,
	}
	return sc
}

// recoveryShaped reports whether sc carries everything a recovery
// conformance run needs: a supervisor, a fault plan with a quiesce point,
// and a convergence deadline that ends inside the run.
func recoveryShaped(sc Scenario) bool {
	return sc.Recovery != nil && sc.Faults != nil &&
		sc.Faults.QuiesceAtMs > 0 && sc.Recovery.DeadlineMs > 0 &&
		sc.Faults.QuiesceAtMs+sc.Recovery.DeadlineMs <= sc.DurationMs
}

// CheckRecovery runs a recovery-shaped scenario twice and verifies the
// post-fault convergence laws on both runs plus bit-identical repairs
// across them:
//
//   - all conservation laws hold at end of run, with auditor violations
//     tolerated only before quiesce+deadline (faults are allowed to break
//     invariants; the repaired steady state is not)
//   - no vCPU is starved at end of run: anything runnable has waited less
//     than the starve bound plus detection/repair slack, or the worst
//     legitimate queueing delay on the surviving capacity, whichever is
//     larger
//   - the lost-IPI ledger is drained
//   - repairs are bounded: the last one lands within the deadline (finite
//     MTTR), so the supervisor converged instead of ping-ponging
//   - a rerun of the identical scenario reproduces bit-identical results,
//     repair log included
func (c *Checker) CheckRecovery(sc Scenario) error {
	if !recoveryShaped(sc) {
		return fmt.Errorf("scenario is not recovery-shaped (need Recovery, Faults.QuiesceAtMs, DeadlineMs with quiesce+deadline <= duration)")
	}
	s, err := sc.ToSetup()
	if err != nil {
		return err
	}
	s.Audit = true
	s.PostCheck = recoveryPostCheck(sc)
	// Run reads the Setup's pointers but never writes through them, so the
	// two runs may share one lowered Setup.
	results, err := experiment.RunAll([]experiment.Setup{s, s})
	if err != nil {
		return fmt.Errorf("recovery run: %w", err)
	}
	if c.mutate != nil {
		c.mutate(results[0])
	}
	if derr := diffResults(results[0], results[1]); derr != nil {
		return fmt.Errorf("recovery rerun not bit-identical: %w", derr)
	}
	return nil
}

// CheckRecovery is the function form of (*Checker).CheckRecovery.
func CheckRecovery(sc Scenario) error {
	var c Checker
	return c.CheckRecovery(sc)
}

// recoveryPostCheck builds the convergence-law PostCheck for sc.
func recoveryPostCheck(sc Scenario) func(*experiment.PostRun) error {
	quiesce := simtime.Duration(sc.Faults.QuiesceAtMs) * simtime.Millisecond
	deadline := simtime.Duration(sc.Recovery.DeadlineMs) * simtime.Millisecond
	starve := simtime.Duration(sc.Recovery.StarveBoundMs) * simtime.Millisecond
	if starve <= 0 {
		starve = 50 * simtime.Millisecond // recovery.Config default
	}
	interval := simtime.Duration(sc.Recovery.IntervalMs) * simtime.Millisecond
	return func(pr *experiment.PostRun) error {
		if err := conservation(pr, simtime.Time(quiesce+deadline)); err != nil {
			return err
		}
		h := pr.HV
		iv := interval
		if iv <= 0 {
			iv = h.Cfg.Tick // supervisor default walk period
		}
		// Starvation bound at end of run: the configured bound plus slack
		// for one detection walk and the repair ladder, or the worst
		// legitimate round-robin wait on the surviving capacity — whichever
		// is larger.
		bound := starve + 4*iv
		if normal := h.NormalPool().OnlineCount(); normal > 0 {
			perQ := (len(h.VCPUs()) + normal - 1) / normal
			if legit := simtime.Duration(perQ)*h.Cfg.NormalSlice + 4*iv; legit > bound {
				bound = legit
			}
		}
		for _, v := range h.VCPUs() {
			if v.State() != hv.StateRunnable {
				continue
			}
			if wait := simtime.Duration(pr.Now - v.RunnableSince()); wait > bound {
				return fmt.Errorf("recovery: d%dv%d still starved at end of run (runnable for %v, bound %v)",
					v.DomID, v.Idx, wait, bound)
			}
		}
		if n := h.LostIPICount(); n > 0 {
			return fmt.Errorf("recovery: lost-IPI ledger not drained: %d interrupts still lost", n)
		}
		if pr.Result.MTTR > deadline {
			return fmt.Errorf("recovery: MTTR %v exceeds convergence deadline %v (repairs did not settle after quiesce)",
				pr.Result.MTTR, deadline)
		}
		return nil
	}
}

// RunRecoverySuite generates Count recovery scenarios (GenerateRecovery)
// and checks the convergence laws on each, shrinking and dumping failures
// exactly like RunSuite. Fixtures written here replay through CheckRecovery
// automatically — ReplayFixture dispatches on the Recovery field.
func RunRecoverySuite(opt Options) (*Report, error) {
	var c Checker
	return c.RunRecoverySuite(opt)
}

// RunRecoverySuite is the method form, letting tests inject a result
// mutation.
func (c *Checker) RunRecoverySuite(opt Options) (*Report, error) {
	return c.runSuite(opt, GenerateRecovery, c.CheckRecovery, func(s Scenario) bool {
		// Shrunk candidates that lose the recovery shape (e.g. the fault
		// plan dropped) are meaningless here, not passing: fail-closed.
		return recoveryShaped(s) && c.CheckRecovery(s) != nil
	})
}

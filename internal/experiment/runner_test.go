package experiment

import (
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/microslicedcore/microsliced/internal/core"
	"github.com/microslicedcore/microsliced/internal/obs"
)

// twoVMSetup is the determinism-regression scenario: two VMs, detection on,
// fixed seeds.
func twoVMSetup() Setup {
	return corunSetup("exim", core.StaticConfig(1), quick)
}

// TestRunFullyDeterministic runs the identical two-VM Setup twice with the
// same seed and requires the *entire* Result — units, yield breakdowns,
// counter snapshots, lock/TLB histograms, symbol hits — to be identical.
func TestRunFullyDeterministic(t *testing.T) {
	a, err := Run(twoVMSetup())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(twoVMSetup())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("identical seeded runs diverged:\nrun1: HV=%v Core=%v\nrun2: HV=%v Core=%v",
			a.HV, a.Core, b.HV, b.Core)
	}
}

// TestRunAllMatchesSerial is the tentpole's equivalence check: the same grid
// run serially and under the parallel worker pool must produce bit-for-bit
// identical Results in the same order.
func TestRunAllMatchesSerial(t *testing.T) {
	grid := []Setup{
		twoVMSetup(),
		soloSetup("gmake", quick),
		corunSetup("dedup", offConfig(), quick),
		corunSetup("exim", core.DefaultConfig(), quick),
	}
	serial := make([]*Result, len(grid))
	for i, s := range grid {
		r, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = r
	}
	old := Parallelism()
	SetParallelism(4)
	defer SetParallelism(old)
	par, err := RunAll(grid)
	if err != nil {
		t.Fatal(err)
	}
	if len(par) != len(serial) {
		t.Fatalf("RunAll returned %d results, want %d", len(par), len(serial))
	}
	for i := range serial {
		if !reflect.DeepEqual(serial[i], par[i]) {
			t.Fatalf("setup %d: serial and RunAll results differ", i)
		}
	}
}

func TestRunAllPropagatesLowestIndexError(t *testing.T) {
	grid := []Setup{
		soloSetup("gmake", quick),
		soloSetup("gmake", quick),
		soloSetup("gmake", quick),
	}
	grid[1].VMs[0].App = "bogus-b"
	grid[2].VMs[0].App = "bogus-c"
	SetParallelism(3)
	defer SetParallelism(0)
	res, err := RunAll(grid)
	if err == nil {
		t.Fatal("RunAll swallowed the setup error")
	}
	if res != nil {
		t.Fatal("RunAll returned results alongside an error")
	}
	// The lowest failing index (1, app bogus-b) must win deterministically.
	if want := "bogus-b"; !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name the lowest-index failure %q", err, want)
	}
}

func TestParallelDoCoversAllIndicesOnce(t *testing.T) {
	const n = 100
	var hits [n]atomic.Int64
	SetParallelism(8)
	defer SetParallelism(0)
	parallelDo(n, func(i int) { hits[i].Add(1) })
	for i := range hits {
		if got := hits[i].Load(); got != 1 {
			t.Fatalf("index %d ran %d times", i, got)
		}
	}
}

func TestSetParallelismClampsNegative(t *testing.T) {
	SetParallelism(-5)
	defer SetParallelism(0)
	if Parallelism() < 1 {
		t.Fatalf("Parallelism()=%d after negative set", Parallelism())
	}
}

// TestSetupHookReachesEveryScenario installs a hook that attaches an
// observer and a counting PostCheck, and requires it to reach every scenario
// of a RunAll grid and of a RunAllSettled grid.
func TestSetupHookReachesEveryScenario(t *testing.T) {
	var checks atomic.Int64
	SetSetupHook(func(s *Setup) {
		s.Obs = &obs.Config{}
		s.PostCheck = func(*PostRun) error {
			checks.Add(1)
			return nil
		}
	})
	defer SetSetupHook(nil)
	SetParallelism(2)
	defer SetParallelism(0)
	grid := []Setup{
		twoVMSetup(),
		soloSetup("gmake", quick),
		corunSetup("dedup", offConfig(), quick),
	}
	res, err := RunAll(grid)
	if err != nil {
		t.Fatal(err)
	}
	settled := RunAllSettled(grid)
	for _, jr := range settled {
		if jr.Err != nil {
			t.Fatal(jr.Err)
		}
		res = append(res, jr.Result)
	}
	if got, want := checks.Load(), int64(2*len(grid)); got != want {
		t.Fatalf("hook's PostCheck ran %d times, want %d", got, want)
	}
	for i, r := range res {
		if r.Telemetry == nil {
			t.Fatalf("result %d: no telemetry although the hook set Obs", i)
		}
	}
}

// TestSetupHookCheckFailsRun requires an error from a hook-installed
// PostCheck to fail the Run, after the Setup's own PostCheck ran.
func TestSetupHookCheckFailsRun(t *testing.T) {
	var ownRan bool
	SetSetupHook(func(s *Setup) {
		inner := s.PostCheck
		s.PostCheck = func(pr *PostRun) error {
			if err := inner(pr); err != nil {
				return err
			}
			return fmt.Errorf("hook check rejects %d VMs", len(pr.Setup.VMs))
		}
	})
	defer SetSetupHook(nil)
	s := soloSetup("gmake", quick)
	s.PostCheck = func(*PostRun) error {
		ownRan = true
		return nil
	}
	if _, err := Run(s); err == nil || !strings.Contains(err.Error(), "hook check rejects 1 VMs") {
		t.Fatalf("Run err = %v, want the hook's check error", err)
	}
	if !ownRan {
		t.Fatal("the Setup's own PostCheck did not run under the hook")
	}
}

// TestSetupHookClearedRestoresPlainRuns requires a cleared hook to leave
// runs exactly as they are without one.
func TestSetupHookClearedRestoresPlainRuns(t *testing.T) {
	plain, err := Run(twoVMSetup())
	if err != nil {
		t.Fatal(err)
	}
	SetSetupHook(func(s *Setup) {
		s.Obs = &obs.Config{}
		s.PostCheck = func(*PostRun) error { return fmt.Errorf("hook still installed") }
	})
	SetSetupHook(nil)
	again, err := Run(twoVMSetup())
	if err != nil {
		t.Fatal(err)
	}
	if again.Telemetry != nil {
		t.Fatal("cleared hook still attached an observer")
	}
	if !reflect.DeepEqual(plain, again) {
		t.Fatal("run after clearing the hook differs from a plain run")
	}
}

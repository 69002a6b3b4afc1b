package experiment

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Every scenario simulation is single-threaded and builds its entire world —
// clock, hypervisor, guests, RNGs — from scratch inside Run, so scenarios
// are embarrassingly parallel across a grid. RunAll exploits that with a
// bounded worker pool while keeping results order-preserving and therefore
// bit-for-bit identical to a serial loop.

// parallelism holds the configured worker count (0 = GOMAXPROCS), read and
// written atomically so tests and cmd flags can adjust it at any time.
var parallelism atomic.Int64

// SetParallelism sets the worker count used by RunAll and the grid
// generators. n <= 0 restores the default (GOMAXPROCS).
func SetParallelism(n int) {
	if n < 0 {
		n = 0
	}
	parallelism.Store(int64(n))
}

// Parallelism returns the effective worker count.
func Parallelism() int {
	if n := int(parallelism.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// setupHook, when set, is applied by Run to its own copy of every Setup
// before defaults are filled in, so a command-line flag can attach an
// observer or a post-run check across entire scenario grids without
// touching each generator. Read/written atomically: grids run on the
// worker pool, so the hook must be safe for concurrent use.
var setupHook atomic.Pointer[func(*Setup)]

// SetSetupHook installs (or, with nil, removes) the process-wide hook Run
// applies to every Setup. The hook configures the run only through Setup's
// own fields — typically Obs and PostCheck.
func SetSetupHook(fn func(*Setup)) {
	if fn == nil {
		setupHook.Store(nil)
		return
	}
	setupHook.Store(&fn)
}

// parallelDo invokes f(0), ..., f(n-1) on a bounded worker pool, handing
// indices out through an atomic counter, and waits for all of them.
func parallelDo(n int, f func(i int)) {
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for w := min(Parallelism(), n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				f(i)
			}
		}()
	}
	wg.Wait()
}

// JobResult is one Setup's settled outcome: exactly one of Result and Err
// is non-nil.
type JobResult struct {
	Result *Result
	Err    error
}

// RunAllSettled executes every Setup on the worker pool with per-job
// isolation: a failing (or panicking — Run recovers panics into errors)
// job yields an error JobResult and never prevents its siblings from
// completing. Results are order-preserving.
func RunAllSettled(setups []Setup) []JobResult {
	out := make([]JobResult, len(setups))
	parallelDo(len(setups), func(i int) {
		r, err := Run(setups[i])
		out[i] = JobResult{Result: r, Err: err}
	})
	return out
}

// RunAll executes every Setup on the worker pool and returns the results in
// input order. On error it returns nil results and the error of the
// lowest-index failing Setup (every job still runs to completion).
func RunAll(setups []Setup) ([]*Result, error) {
	settled := RunAllSettled(setups)
	results := make([]*Result, len(setups))
	for i, jr := range settled {
		if jr.Err != nil {
			return nil, jr.Err
		}
		results[i] = jr.Result
	}
	return results, nil
}

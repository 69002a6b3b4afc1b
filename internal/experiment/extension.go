package experiment

import (
	"fmt"
	"io"
	"strings"

	"github.com/microslicedcore/microsliced/internal/core"
	"github.com/microslicedcore/microsliced/internal/report"
	"github.com/microslicedcore/microsliced/internal/simtime"
)

// ExtensionResult measures the paper's §4.4 future-work extension:
// accelerating *user-level* critical sections registered with the
// hypervisor through a per-process region table.
type ExtensionResult struct {
	BaselineOps    uint64 // vanilla scheduler
	KernelOnlyOps  uint64 // micro-sliced cores, kernel whitelist only
	WithUserCSOps  uint64 // micro-sliced cores + registered user regions
	UserDetections uint64
	KernelOnlyGain float64
	WithUserCSGain float64
}

// userCSSetup co-runs an application whose contention is entirely in
// user-space spinlocks (a latency-critical game-server shape) with a hog
// VM, under the given controller configuration.
func userCSSetup(cc core.Config, dur simtime.Duration) Setup {
	return Setup{
		VMs: []VMSpec{
			{Name: "app", App: "gameserver", Seed: 99},
			{Name: "hog", App: "hog", Seed: 99},
		},
		Core:         cc,
		Duration:     dur,
		StaggerStart: true,
	}
}

// ExtensionUserCS compares the baseline, the kernel-only mechanism, and
// the mechanism with the user-region table enabled, on a user-lock-bound
// application.
func ExtensionUserCS(dur simtime.Duration) (*ExtensionResult, error) {
	uCfg := core.StaticConfig(1)
	uCfg.UserCS = true
	res, err := RunAll([]Setup{
		userCSSetup(offConfig(), dur),
		userCSSetup(core.StaticConfig(1), dur),
		userCSSetup(uCfg, dur),
	})
	if err != nil {
		return nil, err
	}
	base, kern, user := res[0].VM("app").Units, res[1].VM("app").Units, res[2].VM("app").Units
	var userHits uint64
	for name, n := range res[2].SymbolHits {
		if strings.HasPrefix(name, "user:") {
			userHits += n
		}
	}
	return &ExtensionResult{
		BaselineOps:    base,
		KernelOnlyOps:  kern,
		WithUserCSOps:  user,
		UserDetections: userHits,
		KernelOnlyGain: float64(kern) / float64(base),
		WithUserCSGain: float64(user) / float64(base),
	}, nil
}

// Render implements report.Renderer.
func (r *ExtensionResult) Render(w io.Writer) {
	t := report.Table{
		Title:   "Extension (paper 4.4): accelerating registered user-level critical sections",
		Columns: []string{"configuration", "app ops", "gain"},
	}
	t.AddRow("baseline", r.BaselineOps, 1.0)
	t.AddRow("usliced, kernel whitelist only", r.KernelOnlyOps, r.KernelOnlyGain)
	t.AddRow("usliced + registered user regions", r.WithUserCSOps, r.WithUserCSGain)
	t.Notes = append(t.Notes,
		fmt.Sprintf("user-region detections: %d", r.UserDetections))
	t.Notes = append(t.Notes,
		"the kernel whitelist cannot see user-space lock holders; registering the app's critical regions (the paper's proposed interface) recovers them")
	t.Render(w)
}

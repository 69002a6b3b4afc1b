package experiment

import (
	"github.com/microslicedcore/microsliced/internal/report"
	"github.com/microslicedcore/microsliced/internal/simtime"
)

// Class says which front ends select an artefact without naming it.
type Class uint8

// Artefact classes.
const (
	// ClassPaper artefacts are the paper's tables and figures: the public
	// Experiments/Reproduce API and paperbench's "all".
	ClassPaper Class = iota
	// ClassExtension artefacts go beyond the paper's figures; paperbench's
	// "all" runs them, the public API does not list them.
	ClassExtension
	// ClassOptIn artefacts (fault, recovery and serving sweeps) run only
	// when named.
	ClassOptIn
)

// Generator runs an artefact's scenario grid at dur simulated per scenario.
// bests carries the best static micro pool size per workload (the Figure
// 4/5 sweeps' winners) to Figures 6 and 7; nil re-derives them.
type Generator func(dur simtime.Duration, bests map[string]int) (report.Renderer, error)

// Artefact is one reproducible table or figure.
type Artefact struct {
	Name  string
	Class Class
	Gen   Generator
}

// artefacts is the registry, in rendering order: Figures 6 and 7 follow
// the Figure 4/5 sweeps whose winners they consume.
var artefacts = []Artefact{
	{"table1", ClassPaper, noBests(Table1)},
	{"table2", ClassPaper, noBests(Table2)},
	{"table3", ClassPaper, noBests(Table3)},
	{"table4a", ClassPaper, noBests(Table4a)},
	{"table4b", ClassPaper, noBests(Table4b)},
	{"table4c", ClassPaper, noBests(Table4c)},
	{"fig4", ClassPaper, noBests(Figure4)},
	{"fig5", ClassPaper, noBests(Figure5)},
	{"fig6", ClassPaper, withBests(Figure6)},
	{"fig7", ClassPaper, withBests(Figure7)},
	{"fig8", ClassPaper, noBests(Figure8)},
	{"fig9", ClassPaper, noBests(Figure9)},
	{"ext-usercs", ClassExtension, noBests(ExtensionUserCS)},
	{"faultsweep", ClassOptIn, noBests(FaultSweep)},
	{"recoverysweep", ClassOptIn, noBests(RecoverySweep)},
	{"serve", ClassOptIn, noBests(ServeSweep)},
}

// Artefacts returns the registry in rendering order.
func Artefacts() []Artefact { return append([]Artefact(nil), artefacts...) }

// Lookup returns the named artefact.
func Lookup(name string) (Artefact, bool) {
	for _, a := range artefacts {
		if a.Name == name {
			return a, true
		}
	}
	return Artefact{}, false
}

// noBests adapts a generator that takes no best-size map.
func noBests[R report.Renderer](gen func(simtime.Duration) (R, error)) Generator {
	return withBests(func(dur simtime.Duration, _ map[string]int) (R, error) { return gen(dur) })
}

// withBests adapts a typed generator to Generator, keeping a failed run's
// Renderer a true nil.
func withBests[R report.Renderer](gen func(simtime.Duration, map[string]int) (R, error)) Generator {
	return func(dur simtime.Duration, bests map[string]int) (report.Renderer, error) {
		r, err := gen(dur, bests)
		if err != nil {
			return nil, err
		}
		return r, nil
	}
}

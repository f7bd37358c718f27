// Package analyzers is the registry of the fbvet suite: the five
// repo-native invariant analyzers. The general-purpose passes that
// matter here (copylocks — a by-value copy of a struct holding one of
// our RWMutexes silently forks the lock — plus atomic and lostcancel)
// are not bundled: they are in the default set of plain `go vet ./...`,
// which CI runs in the step before fbvet.
package analyzers

import (
	"repro/tools/fbvet/analyzers/errgate"
	"repro/tools/fbvet/analyzers/fsseam"
	"repro/tools/fbvet/analyzers/kernelpurity"
	"repro/tools/fbvet/analyzers/lockdiscipline"
	"repro/tools/fbvet/analyzers/sentinelwrap"
	"repro/tools/fbvet/internal/analysis"
)

// All returns the full fbvet suite in a stable order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		fsseam.Analyzer,
		kernelpurity.Analyzer,
		sentinelwrap.Analyzer,
		lockdiscipline.Analyzer,
		errgate.Analyzer,
	}
}

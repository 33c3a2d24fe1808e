// Package analysis assembles the afvet lint suite: six project-specific
// analyzers that reject, at lint time, the classes of bug the golden-hash
// and -race suites can only catch after the fact. The analyzers and the
// invariants they enforce are specified in DESIGN.md §9 and §14; the
// driver they run on (internal/analysis/driver) is a dependency-free
// equivalent of golang.org/x/tools/go/analysis, extended with an
// interprocedural call-graph and function-summary layer.
package analysis

import (
	"repro/internal/analysis/determinism"
	"repro/internal/analysis/driver"
	"repro/internal/analysis/errcheck"
	"repro/internal/analysis/hotalloc"
	"repro/internal/analysis/lockorder"
	"repro/internal/analysis/logpath"
	"repro/internal/analysis/poolsafe"
)

// All returns the afvet analyzers in stable order.
func All() []*driver.Analyzer {
	return []*driver.Analyzer{
		determinism.Analyzer,
		errcheck.Analyzer,
		hotalloc.Analyzer,
		lockorder.Analyzer,
		logpath.Analyzer,
		poolsafe.Analyzer,
	}
}

// ByName returns the named analyzer, or nil.
func ByName(name string) *driver.Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

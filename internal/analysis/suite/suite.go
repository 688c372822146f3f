// Package suite assembles the full repolint analyzer set so the
// cmd/repolint driver and the repo-cleanliness meta-test run exactly
// the same rules.
package suite

import (
	"repro/internal/analysis"
	"repro/internal/analysis/determinism"
	"repro/internal/analysis/errflow"
	"repro/internal/analysis/poolsafe"
	"repro/internal/analysis/simpure"
)

// All returns the repolint analyzers in reporting order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		determinism.Analyzer,
		poolsafe.Analyzer,
		simpure.Analyzer,
		errflow.Analyzer,
	}
}

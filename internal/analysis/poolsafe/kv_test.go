package poolsafe

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/load"
)

// TestFindsKVWrappers loads the real internal/kv and checks that wrapper
// discovery still recognises its recycling helpers. The analyzer only
// checks call sites of wrappers it found, so a change to the helpers'
// shape that discovery misses would leave poolsafe silently checking
// nothing; this makes that failure loud.
func TestFindsKVWrappers(t *testing.T) {
	pkgs, err := load.Packages("../../..", "./internal/kv")
	if err != nil {
		t.Fatal(err)
	}
	pkg := pkgs[0]
	w := wrappers(&analysis.Pass{Fset: pkg.Fset, Files: pkg.Files, Pkg: pkg.Types, TypesInfo: pkg.Info})

	name := func(fn interface{ FullName() string }) string {
		return strings.TrimPrefix(fn.FullName(), "(*repro/internal/kv.")
	}
	var acquire, release []string
	for fn := range w.acquire {
		acquire = append(acquire, name(fn))
	}
	for fn, idx := range w.release {
		if idx != 0 {
			t.Errorf("%s releases parameter %d, want 0", fn.FullName(), idx)
		}
		release = append(release, name(fn))
	}
	slices.Sort(acquire)
	slices.Sort(release)
	if want := []string{"box[T]).put", "boxes).getReadCtx", "boxes).getWriteCtx"}; !slices.Equal(acquire, want) {
		t.Errorf("acquire wrappers %q, want %q", acquire, want)
	}
	if want := []string{"box[T]).take", "boxes).putReadCtx", "boxes).putWriteCtx"}; !slices.Equal(release, want) {
		t.Errorf("release wrappers %q, want %q", release, want)
	}
}

package analysis

import (
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func parseOne(t *testing.T, comment string) ([]directive, []Finding) {
	t.Helper()
	src := "package p\n\n" + comment + "\nvar X int\n"
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "d.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	var findings []Finding
	ds := parseDirectives(fset, f, func(fd Finding) { findings = append(findings, fd) })
	return ds, findings
}

func TestDirectiveParsing(t *testing.T) {
	cases := []struct {
		comment    string
		directives int
		finding    string // substring of the expected finding, "" for none
	}{
		{"//repolint:allow determinism boot stamp only", 1, ""},
		{"//repolint:allow determinism", 0, "requires a reason"},
		{"//repolint:allow", 0, "missing a rule name"},
		{"//repolint:nonsense", 0, "unrecognized repolint directive"},
		{"// an ordinary comment", 0, ""},
	}
	for _, tc := range cases {
		ds, findings := parseOne(t, tc.comment)
		if len(ds) != tc.directives {
			t.Errorf("%q: got %d directives, want %d", tc.comment, len(ds), tc.directives)
		}
		if tc.finding == "" {
			if len(findings) != 0 {
				t.Errorf("%q: unexpected findings %v", tc.comment, findings)
			}
			continue
		}
		if len(findings) != 1 || !strings.Contains(findings[0].Message, tc.finding) {
			t.Errorf("%q: got findings %v, want one containing %q", tc.comment, findings, tc.finding)
		}
	}
}

func TestDirectiveFields(t *testing.T) {
	ds, _ := parseOne(t, "//repolint:allow simpure live-only file WAL; the sim engine runs on memSegment")
	if len(ds) != 1 {
		t.Fatalf("got %d directives, want 1", len(ds))
	}
	if ds[0].rule != "simpure" {
		t.Errorf("rule = %q, want simpure", ds[0].rule)
	}
	if ds[0].reason != "live-only file WAL; the sim engine runs on memSegment" {
		t.Errorf("reason = %q", ds[0].reason)
	}
	if ds[0].line != 3 {
		t.Errorf("line = %d, want 3", ds[0].line)
	}
}

func TestAllowedLineCoverage(t *testing.T) {
	ds := []directive{{line: 10, rule: "determinism", reason: "r"}}
	for _, tc := range []struct {
		rule string
		line int
		want bool
	}{
		{"determinism", 10, true},  // trailing comment on the flagged line
		{"determinism", 11, true},  // comment on its own line above
		{"determinism", 12, false}, // two lines below is out of range
		{"determinism", 9, false},  // directives never reach upward
		{"simpure", 10, false},     // rule must match
	} {
		if got := allowed(ds, tc.rule, tc.line); got != tc.want {
			t.Errorf("allowed(%s, line %d) = %v, want %v", tc.rule, tc.line, got, tc.want)
		}
	}
}

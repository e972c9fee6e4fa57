package lint

import (
	"strings"
	"testing"
)

// FuzzDirective drives the //vhlint: directive grammar with arbitrary
// comment payloads. parseDirective sits on the front line of every
// analyzer run — a malformed annotation must become a DirectiveBad
// diagnostic, never a panic or a silently-misparsed allow — so the fuzz
// target pins the parser's total behaviour:
//
//   - it never returns nil, and every result has a known Kind;
//   - an allow always names a registered analyzer and carries a
//     non-empty reason, and re-rendering it in canonical form reparses
//     to the same directive (round-trip);
//   - everything else is DirectiveBad with a non-empty explanation —
//     including the retired owner, hot and detsafe directives, which are
//     unknown now.
func FuzzDirective(f *testing.F) {
	seeds := []string{
		"",
		"hot",
		"hot trailing",
		"allow",
		"allow maporder",
		"allow maporder -- sorted immediately after",
		"allow maporder--no space",
		"allow bogus -- reason",
		"allow errflow -- multi -- dash reason",
		"allow  errflow  --  generously  spaced ",
		"detsafe",
		"detsafe --",
		"detsafe -- keys are interned and unique",
		"owner",
		"owner machine",
		"owner shared",
		"owner cloud",
		"owner machine vnet",
		"owner  engine",
		"unknown words here",
		"allow\terrflow\t--\ttabbed",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		// parseDirectives hands parseDirective the payload with trailing
		// blanks trimmed; mirror that entry condition here.
		d := parseDirective(strings.TrimRight(text, " \t"))
		if d == nil {
			t.Fatalf("parseDirective(%q) = nil", text)
		}
		switch d.Kind {
		case DirectiveAllow:
			if !knownAnalyzer(d.Analyzer) {
				t.Errorf("parseDirective(%q): allow for unknown analyzer %q", text, d.Analyzer)
			}
			if d.Reason == "" {
				t.Errorf("parseDirective(%q): allow accepted without a reason", text)
			}
			canon := "allow " + d.Analyzer + " -- " + d.Reason
			r := parseDirective(canon)
			if r.Kind != DirectiveAllow || r.Analyzer != d.Analyzer || r.Reason != d.Reason {
				t.Errorf("round-trip broke: %q reparsed as %+v, want analyzer %q reason %q", canon, r, d.Analyzer, d.Reason)
			}
		case DirectiveBad:
			if d.Err == "" {
				t.Errorf("parseDirective(%q): DirectiveBad with empty explanation", text)
			}
		default:
			t.Errorf("parseDirective(%q): unknown kind %q", text, d.Kind)
		}
		for _, retired := range []string{"owner", "hot", "detsafe"} {
			if (text == retired || strings.HasPrefix(text, retired+" ")) && d.Kind != DirectiveBad {
				t.Errorf("parseDirective(%q) = %q, want the retired %s directive rejected as unknown", text, d.Kind, retired)
			}
		}
	})
}

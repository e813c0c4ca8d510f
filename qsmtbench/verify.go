package main

import (
	"errors"
	"fmt"
	"strings"

	"qsmt"
	"qsmt/internal/core"
	"qsmt/internal/qubo"
	"qsmt/internal/strtheory"
)

// errWrong marks a verdict or witness the benchmark's own reference
// semantics reject; it fails the run.
var errWrong = errors.New("wrong answer")

func wrong(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{errWrong}, args...)...)
}

// refCheck re-checks a witness of a generated constraint with reference
// semantics written here, independently of the constraint's own Check.
func refCheck(c qsmt.Constraint, w qsmt.Witness) error {
	if inc, ok := c.(*core.Includes); ok {
		want := strings.Index(inc.T, inc.S)
		if w.Kind != qsmt.WitnessIndex || want < 0 || w.Index != want {
			return wrong("includes(%q, %q): index %d, first occurrence %d", inc.T, inc.S, w.Index, want)
		}
		return nil
	}
	if w.Kind != qsmt.WitnessString {
		return wrong("%s: non-string witness", c.Name())
	}
	if !holds(c, w.Str) {
		return wrong("%s: witness %q violates the constraint", describe(c), w.Str)
	}
	return nil
}

// holds evaluates one string constraint on s.
func holds(c qsmt.Constraint, s string) bool {
	switch c := c.(type) {
	case *core.Equality:
		return s == c.Target
	case *core.Concat:
		return s == strtheory.Concat(c.Parts...)
	case *core.ReplaceAll:
		return s == strings.ReplaceAll(c.Input, string(c.X), string(c.Y))
	case *core.Replace:
		return s == strings.Replace(c.Input, string(c.X), string(c.Y), 1)
	case *core.Reverse:
		return s == reverse(c.Input)
	case *core.SubstringMatch:
		return len(s) == c.Length && strings.Contains(s, c.Sub)
	case *core.IndexOf:
		return len(s) == c.Length && c.Index+len(c.Sub) <= len(s) && s[c.Index:c.Index+len(c.Sub)] == c.Sub
	case *core.Palindrome:
		return len(s) == c.N && s == reverse(s)
	case *core.Regex:
		return len(s) == c.Length && matchLitClassPlus(c.Pattern, s)
	case *core.Length:
		want := strings.Repeat("\x7f", c.L) + strings.Repeat("\x00", c.N-c.L)
		return s == want
	case *core.PrefixOf:
		return len(s) == c.Length && strings.HasPrefix(s, c.Prefix)
	case *core.SuffixOf:
		return len(s) == c.Length && strings.HasSuffix(s, c.Suffix)
	case *core.CharAt:
		return len(s) == c.Length && c.Index < len(s) && s[c.Index] == c.C
	case *core.ToUpper:
		return s == strings.Map(func(r rune) rune {
			if r >= 'a' && r <= 'z' {
				return r - 'a' + 'A'
			}
			return r
		}, c.Input)
	case *core.Periodic:
		if len(s) != c.N || !printable(s) {
			return false
		}
		for i := 0; i+c.Period < len(s); i++ {
			if s[i] != s[i+c.Period] {
				return false
			}
		}
		return true
	case *core.AvoidChars:
		return len(s) == c.N && printable(s) && !strings.ContainsAny(s, string(c.Chars))
	case *core.Conjunction:
		for _, m := range c.Members {
			if !holds(m, s) {
				return false
			}
		}
		return true
	}
	return false
}

// matchLitClassPlus matches the generated regex shape "l[xy…]+": one
// literal character followed by one or more characters of a class.
func matchLitClassPlus(pattern, s string) bool {
	if len(pattern) < 5 || pattern[1] != '[' || !strings.HasSuffix(pattern, "]+") {
		return false
	}
	class := pattern[2 : len(pattern)-2]
	if len(s) < 2 || s[0] != pattern[0] {
		return false
	}
	for i := 1; i < len(s); i++ {
		if strings.IndexByte(class, s[i]) < 0 {
			return false
		}
	}
	return true
}

func reverse(s string) string {
	b := []byte(s)
	for i, j := 0, len(b)-1; i < j; i, j = i+1, j-1 {
		b[i], b[j] = b[j], b[i]
	}
	return string(b)
}

func printable(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < 0x20 || s[i] > 0x7e {
			return false
		}
	}
	return true
}

func describe(c qsmt.Constraint) string {
	return fmt.Sprintf("%s%+v", c.Name(), c)
}

// tracedConstraint forwards to a constraint while recording core-layer
// spans around its public calls. Traced rounds pass it to the solver in
// place of the bare constraint.
type tracedConstraint struct {
	qsmt.Constraint
	tr    *tracer
	built *durationSum
}

// durationSum totals the BuildModel time of one call, which the
// solver's compile timer also covers.
type durationSum struct{ d int64 }

func (t tracedConstraint) BuildModel() (m *qubo.Model, err error) {
	_, end := t.tr.child("BuildModel", "core", 0, 0)
	start := t.tr.now()
	m, err = t.Constraint.BuildModel()
	t.built.d += t.tr.now() - start
	end()
	return m, err
}

func (t tracedConstraint) Decode(x []qubo.Bit) (qsmt.Witness, error) {
	_, end := t.tr.child("Decode", "core", 0, 0)
	defer end()
	return t.Constraint.Decode(x)
}

func (t tracedConstraint) Check(w qsmt.Witness) error {
	_, end := t.tr.child("Check", "core", 0, 0)
	defer end()
	return t.Constraint.Check(w)
}

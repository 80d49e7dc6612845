package lint

import "testing"

func TestErrDisciplineBlankDiscard(t *testing.T) {
	src := `package core

func f() error { return nil }

func g() {
	err := f()
	_ = err
}
`
	got := runOne(t, ErrDiscipline, "internal/core", src)
	wantFindings(t, got, "discarded with _ =")
}

func TestErrDisciplineContinueSwallow(t *testing.T) {
	src := `package core

func g(xs []int) {
	for range xs {
		v, err := lookup()
		if err != nil {
			continue
		}
		use(v)
	}
}

func lookup() (int, error) { return 0, nil }
func use(int)              {}
`
	got := runOne(t, ErrDiscipline, "internal/core", src)
	wantFindings(t, got, "bare continue swallows non-nil error err")
}

func TestErrDisciplineReturnDrop(t *testing.T) {
	src := `package core

func g() int {
	v, err := lookup()
	if err != nil {
		return 0
	}
	return v
}

func lookup() (int, error) { return 0, nil }
`
	got := runOne(t, ErrDiscipline, "internal/core", src)
	wantFindings(t, got, "return drops non-nil error err")
}

func TestErrDisciplineErrorfWithoutWrap(t *testing.T) {
	src := `package core

import "fmt"

var ErrNotFound = fmt.Errorf("not found")

func g(id string) error {
	return fmt.Errorf("vm %s: %v", id, ErrNotFound)
}
`
	got := runOne(t, ErrDiscipline, "internal/core", src)
	wantFindings(t, got, "without %w")
}

// errors.Is classification consumes the error: the expected case may be
// skipped.
func TestErrDisciplineErrorsIsClassification(t *testing.T) {
	src := `package core

import "errors"

var errSkip = errors.New("skip")

func g(xs []int) {
	for range xs {
		v, err := lookup()
		if err != nil {
			if errors.Is(err, errSkip) {
				continue
			}
			record(err)
			continue
		}
		use(v)
	}
}

func lookup() (int, error) { return 0, nil }
func use(int)              {}
func record(error)         {}
`
	wantFindings(t, runOne(t, ErrDiscipline, "internal/core", src))
}

// An if-init scoped error is a predicate by construction; a compensating
// call (retry, counter) before the return also counts as handling.
func TestErrDisciplineExemptions(t *testing.T) {
	src := `package core

import "strconv"

func scoped(s string) int {
	if v, err := lookup(); err == nil {
		return v
	}
	_ = s
	return 0
}

func parses(fields []string) int {
	total := 0
	for _, f := range fields {
		v, err := strconv.Atoi(f)
		if err != nil {
			continue
		}
		total += v
	}
	return total
}

func compensates() {
	v, err := lookup()
	if err != nil {
		retry()
		return
	}
	use(v)
}

func lookup() (int, error) { return 0, nil }
func use(int)              {}
func retry()               {}
`
	wantFindings(t, runOne(t, ErrDiscipline, "internal/core", src))
}

// Returning a freshly constructed value (a search loop whose misses end in
// a new fmt.Errorf) is handling, not a swallow.
func TestErrDisciplineReturnConstructsValue(t *testing.T) {
	src := `package core

import "fmt"

func find(ids []string) (int, error) {
	for range ids {
		if v, err := lookup(); err == nil {
			return v, nil
		}
	}
	return 0, fmt.Errorf("core: not found")
}

func lookup() (int, error) { return 0, nil }
`
	wantFindings(t, runOne(t, ErrDiscipline, "internal/core", src))
}

func TestErrDisciplineSuppressed(t *testing.T) {
	src := `package core

func g(xs []int) {
	for range xs {
		v, err := lookup()
		if err != nil {
			//lint:ignore errdiscipline fixture: loss is intended here
			continue
		}
		use(v)
	}
}

func lookup() (int, error) { return 0, nil }
func use(int)              {}
`
	wantFindings(t, runOne(t, ErrDiscipline, "internal/core", src))
}

// The non-nil branch of `err == nil` is its else, down an else-if chain.
func TestErrDisciplineElseIfChain(t *testing.T) {
	src := `package core

func g(xs []int, verbose bool) {
	for range xs {
		v, err := lookup()
		if err == nil {
			use(v)
		} else if verbose {
			continue
		}
	}
}

func lookup() (int, error) { return 0, nil }
func use(int)              {}
`
	got := runOne(t, ErrDiscipline, "internal/core", src)
	wantFindings(t, got, "bare continue swallows non-nil error err")
}

// An `if err == nil` block that always leaves makes the rest of the list
// the error branch.
func TestErrDisciplineInvertedEarlyExit(t *testing.T) {
	src := `package core

func g() int {
	v, err := lookup()
	if err == nil {
		return v
	}
	return 0
}

func h() (int, error) {
	v, err := lookup()
	if err == nil {
		return v, nil
	}
	return 0, err
}

func lookup() (int, error) { return 0, nil }
`
	got := runOne(t, ErrDiscipline, "internal/core", src)
	wantFindings(t, got, "return drops non-nil error err")
	if got[0].Pos.Line != 8 {
		t.Errorf("finding at line %d, want 8", got[0].Pos.Line)
	}
}

// `err != nil` as one conjunct of && still proves err non-nil in the
// then-block; a mention elsewhere in the condition consumes it.
func TestErrDisciplineConjunct(t *testing.T) {
	src := `package core

import "errors"

var errSkip = errors.New("skip")

func g(xs []int, strict bool) {
	for range xs {
		v, err := lookup()
		if strict && err != nil {
			break
		}
		if err != nil && !errors.Is(err, errSkip) {
			continue
		}
		use(v)
	}
}

func lookup() (int, error) { return 0, nil }
func use(int)              {}
`
	got := runOne(t, ErrDiscipline, "internal/core", src)
	wantFindings(t, got, "bare break swallows non-nil error err")
}

// Branches nest: an error branch inside another block is found, and inside
// an error branch a call on one arm does not cover the other.
func TestErrDisciplineNestedBranch(t *testing.T) {
	src := `package core

func g(xs []int, ok, verbose bool) {
	for range xs {
		v, err := lookup()
		if ok {
			if err != nil {
				break
			}
		}
		if err != nil {
			if verbose {
				record(err)
				continue
			}
			continue
		}
		use(v)
	}
}

func lookup() (int, error) { return 0, nil }
func use(int)              {}
func record(error)         {}
`
	got := runOne(t, ErrDiscipline, "internal/core", src)
	wantFindings(t, got, "bare break swallows non-nil error err", "bare continue swallows non-nil error err")
	if got[1].Pos.Line != 16 {
		t.Errorf("second finding at line %d, want 16", got[1].Pos.Line)
	}
}

// The strconv exemption covers the parse's own test, not the variable: a
// read error in the same loop, later reused by a parse, is still checked.
func TestErrDisciplineParseExemptionIsPerStatement(t *testing.T) {
	src := `package spotmarket

import "strconv"

func read(next func() ([]string, error)) float64 {
	total := 0.0
	for {
		rec, err := next()
		if err != nil {
			continue
		}
		v, err := strconv.ParseFloat(rec[0], 64)
		if err != nil {
			continue
		}
		total += v
	}
}
`
	got := runOne(t, ErrDiscipline, "internal/spotmarket", src)
	wantFindings(t, got, "bare continue swallows non-nil error err")
	if got[0].Pos.Line != 10 {
		t.Errorf("finding at line %d, want 10", got[0].Pos.Line)
	}
}

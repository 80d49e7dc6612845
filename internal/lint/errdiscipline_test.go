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

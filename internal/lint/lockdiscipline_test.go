package lint

import "testing"

const lockFixtureHeader = `package obs

import "sync"

type ring struct {
	mu  sync.Mutex
	buf []int // guarded by mu
	n   int   // guarded by mu
	cap int   // immutable
}
`

func TestLockDisciplineUnlockedRead(t *testing.T) {
	src := lockFixtureHeader + `
func (r *ring) len() int { return r.n }
`
	got := runOne(t, LockDiscipline, "internal/obs", src)
	wantFindings(t, got, "field r.n is guarded by mu")
}

func TestLockDisciplineLockedAccessClean(t *testing.T) {
	src := lockFixtureHeader + `
func (r *ring) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

func (r *ring) capacity() int { return r.cap }
`
	wantFindings(t, runOne(t, LockDiscipline, "internal/obs", src))
}

// After an explicit Unlock the guard is gone: later accesses on the same
// path are flagged.
func TestLockDisciplineAccessAfterUnlock(t *testing.T) {
	src := lockFixtureHeader + `
func (r *ring) drain() int {
	r.mu.Lock()
	n := r.n
	r.mu.Unlock()
	return n + len(r.buf)
}
`
	got := runOne(t, LockDiscipline, "internal/obs", src)
	wantFindings(t, got, "field r.buf is guarded by mu")
}

// The must-hold set is the intersection over joining paths: a branch
// that locks on only one arm does not protect the code after the join.
func TestLockDisciplineJoinIntersection(t *testing.T) {
	src := lockFixtureHeader + `
func (r *ring) maybe(lock bool) int {
	if lock {
		r.mu.Lock()
		defer r.mu.Unlock()
	}
	return r.n
}
`
	got := runOne(t, LockDiscipline, "internal/obs", src)
	wantFindings(t, got, "field r.n is guarded by mu")
}

// RWMutex read paths hold RLock; that satisfies the guard.
func TestLockDisciplineRLockClean(t *testing.T) {
	src := `package obs

import "sync"

type reg struct {
	mu sync.RWMutex
	m  map[string]int // guarded by mu
}

func (r *reg) get(k string) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.m[k]
}

func (r *reg) lookupTwice(k string) int {
	r.mu.RLock()
	v := r.m[k]
	r.mu.RUnlock()
	r.mu.Lock()
	v += r.m[k]
	r.mu.Unlock()
	return v
}
`
	wantFindings(t, runOne(t, LockDiscipline, "internal/obs", src))
}

func TestLockDisciplineSuppressed(t *testing.T) {
	src := lockFixtureHeader + `
func (r *ring) len() int {
	//lint:ignore lockdiscipline fixture: constructor-only path
	return r.n
}
`
	wantFindings(t, runOne(t, LockDiscipline, "internal/obs", src))
}

// A branch that unlocks and returns adds nothing to what follows it; one
// that unlocks and falls through does.
func TestLockDisciplineUnlockReturnInBranch(t *testing.T) {
	src := lockFixtureHeader + `
func (r *ring) pop() int {
	r.mu.Lock()
	if r.n == 0 {
		r.mu.Unlock()
		return 0
	}
	v := r.buf[0]
	r.mu.Unlock()
	return v
}

func (r *ring) peek() int {
	r.mu.Lock()
	if r.n == 0 {
		r.mu.Unlock()
	}
	return r.n
}
`
	got := runOne(t, LockDiscipline, "internal/obs", src)
	wantFindings(t, got, "field r.n is guarded by mu")
	if got[0].Pos.Line != 28 {
		t.Errorf("finding at line %d, want 28", got[0].Pos.Line)
	}
}

// A lock taken inside a loop body does not cover the code after the loop,
// which may run zero times; an iteration that unlocks before looping back
// leaves the top of the next iteration unguarded.
func TestLockDisciplineLockInLoop(t *testing.T) {
	src := lockFixtureHeader + `
func (r *ring) sum(xs []int) int {
	for i := 0; i < len(xs); i++ {
		r.mu.Lock()
		r.n += xs[i]
	}
	return r.n
}

func (r *ring) add(xs []int) {
	for i := 0; i < len(xs); i++ {
		r.mu.Lock()
		r.n += xs[i]
		r.mu.Unlock()
	}
}

func (r *ring) relock(xs []int) {
	r.mu.Lock()
	for i := 0; i < len(xs); i++ {
		r.n++
		r.mu.Unlock()
	}
}
`
	got := runOne(t, LockDiscipline, "internal/obs", src)
	wantFindings(t, got, "field r.n is guarded by mu", "field r.n is guarded by mu")
	if got[0].Pos.Line != 17 || got[1].Pos.Line != 31 {
		t.Errorf("findings at lines %d and %d, want 17 and 31", got[0].Pos.Line, got[1].Pos.Line)
	}
}

// A range loop is a loop like any other: the lock its body takes guards
// the body's accesses, not the code after it.
func TestLockDisciplineRangeLoop(t *testing.T) {
	src := lockFixtureHeader + `
func (r *ring) sum(xs []int) int {
	for _, x := range xs {
		r.mu.Lock()
		r.n += x
		r.mu.Unlock()
	}
	for _, x := range xs {
		r.mu.Lock()
		r.n += x
	}
	return r.n
}
`
	got := runOne(t, LockDiscipline, "internal/obs", src)
	wantFindings(t, got, "field r.n is guarded by mu")
	if got[0].Pos.Line != 22 {
		t.Errorf("finding at line %d, want 22", got[0].Pos.Line)
	}
}

// Conditions are accesses too: an if or for condition reading a guarded
// field needs the lock like any statement.
func TestLockDisciplineConditionAccess(t *testing.T) {
	src := lockFixtureHeader + `
func (r *ring) full() bool {
	if r.n == r.cap {
		return true
	}
	for i := 0; i < len(r.buf); i++ {
	}
	return false
}
`
	got := runOne(t, LockDiscipline, "internal/obs", src)
	wantFindings(t, got, "field r.n is guarded by mu", "field r.buf is guarded by mu")
}

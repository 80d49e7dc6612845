package lint

import "testing"

func TestDeterminism(t *testing.T) {
	tests := []struct {
		name string
		rel  string
		src  string
		want []string // message substrings, in position order
	}{
		{
			name: "time.Now flagged",
			rel:  "internal/core",
			src: `package core
import "time"
func f() int64 { return time.Now().Unix() }
`,
			want: []string{"time.Now reads the wall clock"},
		},
		{
			name: "time.Sleep and time.Tick flagged",
			rel:  "internal/migration",
			src: `package migration
import "time"
func f() { time.Sleep(time.Second); <-time.Tick(time.Second) }
`,
			want: []string{"time.Sleep reads the wall clock", "time.Tick reads the wall clock"},
		},
		{
			name: "aliased import still caught",
			rel:  "internal/backup",
			src: `package backup
import clock "time"
func f() { _ = clock.Now() }
`,
			want: []string{"clock.Now reads the wall clock"},
		},
		{
			name: "time.Duration values allowed",
			rel:  "internal/spotmarket",
			src: `package spotmarket
import "time"
func f(s string) (time.Time, error) { return time.Parse(time.RFC3339, s) }
var d = 5 * time.Minute
`,
		},
		{
			name: "global rand flagged",
			rel:  "internal/experiments",
			src: `package experiments
import "math/rand"
func f() int { rand.Shuffle(3, func(i, j int) {}); return rand.Intn(10) }
`,
			want: []string{"rand.Shuffle uses the global math/rand source", "rand.Intn uses the global math/rand source"},
		},
		{
			name: "rand v2 global flagged",
			rel:  "internal/workload",
			src: `package workload
import "math/rand/v2"
func f() int { return rand.IntN(10) }
`,
			want: []string{"rand.IntN uses the global math/rand source"},
		},
		{
			name: "catalog generator global rand flagged",
			rel:  "internal/cloud",
			src: `package cloud
import "math/rand"
func f() int { return rand.Intn(54) }
`,
			want: []string{"rand.Intn uses the global math/rand source"},
		},
		{
			name: "seeded rand.New allowed",
			rel:  "internal/cloudsim",
			src: `package cloudsim
import "math/rand"
func f(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
func g(r *rand.Rand) float64 { return r.Float64() }
`,
		},
		{
			name: "non-deterministic package out of scope",
			rel:  "cmd/spotcheckd",
			src: `package main
import "time"
func f() { _ = time.Now() }
`,
		},
		{
			name: "suppressed with reason",
			rel:  "internal/core",
			src: `package core
import "time"
func f() int64 {
	//lint:ignore determinism fixture: boot banner only, not simulation state
	return time.Now().Unix()
}
`,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			wantFindings(t, runOne(t, Determinism, tt.rel, tt.src), tt.want...)
		})
	}
}

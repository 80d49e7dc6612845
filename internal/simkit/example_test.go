package simkit_test

import (
	"fmt"

	"repro/internal/simkit"
)

// Events fire in virtual-time order; events may schedule further events.
func ExampleScheduler() {
	s := simkit.NewScheduler()
	s.At(2*simkit.Hour, "later", func() {
		fmt.Println("spike at", s.Now())
	})
	s.At(simkit.Hour, "sooner", func() {
		fmt.Println("warning at", s.Now())
		s.After(120*simkit.Second, "forced-kill", func() {
			fmt.Println("terminated at", s.Now())
		})
	})
	s.Run(0)
	// Output:
	// warning at 1h0m0s
	// terminated at 1h2m0s
	// spike at 2h0m0s
}

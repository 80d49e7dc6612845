package simkit

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkSchedulerThroughput measures raw event dispatch: the entire
// evaluation rides on this loop.
func BenchmarkSchedulerThroughput(b *testing.B) {
	s := NewScheduler()
	for i := 0; i < b.N; i++ {
		s.After(Time(i%1000)*millisecond, "e", func() {})
		if i%1024 == 1023 {
			s.Run(0)
		}
	}
	s.Run(0)
}

// BenchmarkSchedulerMixed measures a realistic mix: scheduling, firing and
// cancellation with events re-scheduling each other.
func BenchmarkSchedulerMixed(b *testing.B) {
	s := NewScheduler()
	r := rand.New(rand.NewSource(1))
	var pending []Event
	for i := 0; i < b.N; i++ {
		e := s.After(Time(r.Intn(10000))*millisecond, "m", func() {
			s.After(millisecond, "child", func() {})
		})
		pending = append(pending, e)
		if len(pending) >= 256 {
			for _, p := range pending[:128] {
				s.Cancel(p)
			}
			pending = pending[:0]
			s.RunUntil(s.Now() + Second)
		}
	}
	s.Run(0)
}

// BenchmarkLognormalSample measures the latency-sampling hot path.
func BenchmarkLognormalSample(b *testing.B) {
	d := Lognormal{Mu: 4, Sigma: 0.3}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		_ = d.Sample(r)
	}
}

// BenchmarkSchedulerHold measures the classic hold model at a fixed queue
// depth: each op fires the earliest event and schedules one more within the
// next minute, so the queue stays depth deep. The depths bracket the
// workloads: a small scenario cell, a 1 500-VM cell's mean, the 10k-VM
// fleet's, and a 100k-VM fleet's.
func BenchmarkSchedulerHold(b *testing.B) {
	for _, depth := range []int{30, 750, 20000, 100000} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			s := NewScheduler()
			x := uint64(depth)
			delay := func() Time { // xorshift: keeps the RNG off the profile
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				return Time(x % uint64(Minute))
			}
			fn := func(uint64) {}
			for range depth {
				s.AfterArg(delay(), "hold", fn, 0)
			}
			b.ResetTimer()
			for range b.N {
				s.Step()
				s.AfterArg(delay(), "hold", fn, 0)
			}
		})
	}
}

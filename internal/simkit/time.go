package simkit

import (
	"fmt"
	"time"
)

// Time is virtual time measured as an offset from the simulation start.
// It is a distinct type (not time.Time) so real wall-clock values cannot be
// accidentally mixed into simulated schedules.
type Time time.Duration

// Common virtual-time units.
const (
	Second = Time(time.Second)
	Minute = Time(time.Minute)
	Hour   = Time(time.Hour)
	Day    = 24 * Hour
)

// Hours reports t in fractional hours, the natural unit for $/hr accounting.
func (t Time) Hours() float64 { return time.Duration(t).Hours() }

// Seconds reports t in fractional seconds.
func (t Time) Seconds() float64 { return time.Duration(t).Seconds() }

// Sub returns the duration between t and earlier.
func (t Time) Sub(earlier Time) time.Duration { return time.Duration(t - earlier) }

func (t Time) String() string {
	d := time.Duration(t)
	if d >= 24*time.Hour {
		days := d / (24 * time.Hour)
		rem := d % (24 * time.Hour)
		return fmt.Sprintf("%dd%s", days, rem)
	}
	return d.String()
}

// Hours converts fractional hours to virtual time.
func Hours(h float64) Time { return Time(float64(time.Hour) * h) }

// Seconds converts fractional seconds to virtual time.
func Seconds(s float64) Time { return Time(float64(time.Second) * s) }

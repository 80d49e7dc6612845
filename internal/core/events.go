package core

import (
	"repro/internal/nestedvm"
	"repro/internal/obs"
)

// EventKind classifies controller events in a nested VM's audit timeline.
type EventKind string

// Event kinds, in rough lifecycle order.
const (
	EventRequested EventKind = "requested"
	EventPlaced    EventKind = "placed"     // entered service on a host
	EventWarned    EventKind = "warned"     // host received a revocation warning
	EventPaused    EventKind = "paused"     // final flush pause began
	EventMigrated  EventKind = "migrated"   // running on a new host
	EventReturned  EventKind = "returned"   // back on a spot host
	EventStateLost EventKind = "state-lost" // memory state lost (live overrun)
	EventReleased  EventKind = "released"
)

// emit is the controller's one event path: it appends a structured event to
// the configured sink (Config.Trace) and does nothing without one. Call
// sites that build a detail check c.trace themselves first, so a controller
// nobody can read events from formats nothing.
func (c *Controller) emit(scope, subject string, kind EventKind, detail string) {
	if c.trace == nil {
		return
	}
	c.trace.Add(obs.TraceEvent{
		At: c.sched.Now(), Scope: scope, Subject: subject, Kind: string(kind), Detail: detail,
	})
}

// Events returns a VM's audit timeline (oldest first): every retained event
// whose subject is that VM. Unknown or recycled VMs, and a controller
// without a sink, yield an empty timeline.
func (c *Controller) Events(id nestedvm.ID) []obs.TraceEvent {
	if c.trace == nil {
		return nil
	}
	return c.trace.Timeline(string(id))
}

package core

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/cloud"
	"repro/internal/nestedvm"
	"repro/internal/simkit"
	"repro/internal/spotmarket"
)

// revocationRig runs one VM through a revocation and the return to spot.
func revocationRig(t *testing.T, mutate func(*Config)) (*testRig, nestedvm.ID) {
	t.Helper()
	traces := spotmarket.Set{
		{Type: cloud.M3Medium, Zone: "zone-a"}: makeTrace(t, 0.01, testEnd,
			spike{at: 10 * simkit.Hour, dur: simkit.Hour, price: 0.50}),
	}
	r := newRig(t, traces, mutate)
	id := r.request(t, "alice")
	r.run(t, 13*simkit.Hour)
	return r, id
}

func TestEventTimelineAcrossRevocation(t *testing.T) {
	r, id := revocationRig(t, nil)

	events := r.ctrl.Events(id)
	if len(events) < 5 {
		t.Fatalf("timeline too short: %v", events)
	}
	var kinds []EventKind
	for _, e := range events {
		kinds = append(kinds, EventKind(e.Kind))
	}
	wantOrder := []EventKind{EventRequested, EventPlaced, EventWarned, EventPaused, EventMigrated, EventReturned}
	idx := 0
	for _, k := range kinds {
		if idx < len(wantOrder) && k == wantOrder[idx] {
			idx++
		}
	}
	if idx != len(wantOrder) {
		t.Errorf("timeline missing lifecycle order %v, got %v", wantOrder[idx:], kinds)
	}
	// Timestamps are non-decreasing.
	for i := 1; i < len(events); i++ {
		if events[i].At < events[i-1].At {
			t.Fatalf("events out of order: %v", events)
		}
	}
	// The warned event carries context.
	for _, e := range events {
		if EventKind(e.Kind) == EventWarned && !strings.Contains(e.Detail, "deadline") {
			t.Errorf("warned detail = %q", e.Detail)
		}
	}
	// Release appends a final event.
	if err := r.ctrl.ReleaseServer(id); err != nil {
		t.Fatal(err)
	}
	events = r.ctrl.Events(id)
	if EventKind(events[len(events)-1].Kind) != EventReleased {
		t.Errorf("last event = %v, want released", events[len(events)-1])
	}
	// String rendering includes the kind.
	if !strings.Contains(events[0].String(), "requested") {
		t.Error("TraceEvent.String missing kind")
	}
	// Unknown VM: empty timeline, no panic.
	if got := r.ctrl.Events("nvm-none"); len(got) != 0 {
		t.Errorf("unknown VM events = %v", got)
	}
}

// TestEventSinkDoesNotFeedBack: recording is write-only. The same run with
// and without a sink produces the same report and the same metrics, and
// without one there is no timeline to read.
func TestEventSinkDoesNotFeedBack(t *testing.T) {
	with, id := revocationRig(t, nil)
	without, _ := revocationRig(t, func(c *Config) { c.Trace = nil })
	if !reflect.DeepEqual(with.ctrl.Report(), without.ctrl.Report()) {
		t.Errorf("reports differ:\n with sink    %+v\n without sink %+v", with.ctrl.Report(), without.ctrl.Report())
	}
	if !reflect.DeepEqual(with.ctrl.Metrics().Snapshot(), without.ctrl.Metrics().Snapshot()) {
		t.Error("registry snapshots differ between the run with a sink and the run without")
	}
	if len(with.ctrl.Events(id)) == 0 {
		t.Error("no timeline with a sink")
	}
	if evs := without.ctrl.Events(id); len(evs) != 0 {
		t.Errorf("timeline without a sink: %v", evs)
	}
}

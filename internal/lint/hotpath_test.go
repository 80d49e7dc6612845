package lint

import "testing"

func TestHotPath(t *testing.T) {
	tests := []struct {
		name string
		rel  string
		src  string
		want []string // message substrings, in position order
	}{
		{
			name: "R1 closure to sched.After flagged",
			rel:  "internal/core",
			src: `package core
func (c *ctrl) arm() { c.sched.After(10, "tick", func() { c.tick() }) }
`,
			want: []string{"function literal handed to c.sched.After"},
		},
		{
			name: "R1 closure split over two lines flagged",
			rel:  "internal/cloudsim",
			src: `package cloudsim
func (p *Platform) complete(d simkit.Time) {
	p.sched.After(d, "op-done",
		func() {})
}
`,
			want: []string{"function literal handed to p.sched.After"},
		},
		{
			name: "R1 closure to an argument-carrying event flagged",
			rel:  "internal/cloudchaos",
			src: `package cloudchaos
func (p *Provider) deliver(at simkit.Time) { p.sched.AtArg(at, "deliver", func(uint64) {}, 0) }
`,
			want: []string{"function literal handed to p.sched.AtArg"},
		},
		{
			name: "R1 closure to a provider method flagged",
			rel:  "internal/core",
			src: `package core
func (c *Controller) attach(v cloud.VolumeID, id cloud.InstanceID) {
	c.prov.AttachVolume(v, id, func(err error) { c.attached(err) })
}
`,
			want: []string{"function literal handed to c.prov.AttachVolume"},
		},
		{
			name: "R1 bound functions allowed",
			rel:  "internal/core",
			src: `package core
func (c *Controller) arm(vs *vmState, v cloud.VolumeID, id cloud.InstanceID) {
	c.sched.AfterArg(10, "advance", c.advanceFn, 7)
	c.prov.AttachVolume(v, id, vs.onOp)
}
`,
		},
		{
			name: "R1 closure to an unrelated call allowed",
			rel:  "internal/core",
			src: `package core
func f(ids []int) { sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] }) }
`,
		},
		{
			name: "R2 go literal flagged",
			rel:  "internal/cloudchaos",
			src: `package cloudchaos
func f(done chan struct{}) { go func() { close(done) }() }
`,
			want: []string{"function literal in a go statement"},
		},
		{
			name: "R2 defer literal flagged",
			rel:  "internal/cloudchaos",
			src: `package cloudchaos
func f() { defer func() {}() }
`,
			want: []string{"function literal in a defer statement"},
		},
		{
			name: "R2 defer of a named call allowed",
			rel:  "internal/cloudsim",
			src: `package cloudsim
func (p *Platform) f() { p.mu.Lock(); defer p.mu.Unlock() }
`,
		},
		{
			name: "R3 RunUntil flagged",
			rel:  "internal/core",
			src: `package core
func (c *Controller) settle() { c.sched.RunUntil(0) }
`,
			want: []string{"c.sched.RunUntil drives the event loop"},
		},
		{
			name: "R4 id-keyed maps flagged in cloudsim",
			rel:  "internal/cloudsim",
			src: `package cloudsim
var m map[cloud.InstanceID]int
type t struct {
	vols  map[cloud.VolumeID]bool
	addrs map[netip.Addr]cloud.Addr
	ips   map[cloud.Addr]int
}
`,
			want: []string{"map keyed by cloud.InstanceID", "map keyed by cloud.VolumeID", "map keyed by netip.Addr", "map keyed by cloud.Addr"},
		},
		{
			name: "R4 applies to core too",
			rel:  "internal/core",
			src: `package core
var hostIndex map[cloud.InstanceID]int
`,
			want: []string{"map keyed by cloud.InstanceID"},
		},
		{
			name: "R4 does not apply to cloudchaos",
			rel:  "internal/cloudchaos",
			src: `package cloudchaos
var seen map[cloud.InstanceID]int
`,
		},
		{
			name: "R4 other keys allowed",
			rel:  "internal/cloudsim",
			src: `package cloudsim
var m map[string]cloud.InstanceID
`,
		},
		{
			name: "revalidating closure still a closure",
			rel:  "internal/core",
			src: `package core
func (c *ctrl) arm(h handle) {
	c.sched.After(10, "tick", func() {
		st := c.vmSlab.Get(h)
		if st == nil {
			return
		}
		work(st)
	})
}
`,
			want: []string{"function literal handed to c.sched.After"},
		},
		{
			name: "re-Get after a yield still a yield",
			rel:  "internal/core",
			src: `package core
func (c *ctrl) step(h handle) {
	c.sched.Step()
	st := c.vmSlab.Get(h)
	work(st)
}
`,
			want: []string{"c.sched.Step drives the event loop"},
		},
		{
			name: "cold package out of scope",
			rel:  "internal/experiments",
			src: `package experiments
func (r *runner) run() {
	r.sched.After(10, "tick", func() {})
	r.sched.RunUntil(100)
}
`,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			wantFindings(t, runOne(t, HotPath, tt.rel, tt.src), tt.want...)
		})
	}
}

// The slab-handle fixtures below are the ways a recycled slot gets
// dereferenced through a stale pointer. hotpath flags each at its root:
// the closure that runs later, or the yield that lets the slot recycle.

func TestHandleSafetyDeferredCapture(t *testing.T) {
	src := `package core

func (c *ctrl) release(h handle) {
	st := c.vmSlab.Get(h)
	if st == nil {
		return
	}
	defer func() {
		finish(st)
	}()
	work(st)
}
`
	got := runOne(t, HotPath, "internal/core", src)
	wantFindings(t, got, "function literal in a defer statement")
}

func TestHandleSafetyScheduledCapture(t *testing.T) {
	src := `package core

func (c *ctrl) arm(h handle) {
	st := c.vmSlab.Get(h)
	if st == nil {
		return
	}
	c.sched.After(10, "tick", func() {
		work(st)
	})
}
`
	got := runOne(t, HotPath, "internal/core", src)
	wantFindings(t, got, "function literal handed to c.sched.After")
}

func TestHandleSafetyUseAfterYield(t *testing.T) {
	src := `package core

func (c *ctrl) step(h handle) {
	st := c.vmSlab.Get(h)
	if st == nil {
		return
	}
	c.sched.Step()
	work(st)
}
`
	got := runOne(t, HotPath, "internal/core", src)
	wantFindings(t, got, "c.sched.Step drives the event loop")
}

// A pointer fetched through a wrapper is no different: the yield is the
// finding, whoever fetched the pointer.
func TestHandleSafetyWrapperFunction(t *testing.T) {
	src := `package core

func (c *ctrl) lookupVM(h handle) *vmState {
	return c.vmSlab.Get(h)
}

func (c *ctrl) run(h handle) {
	vs := c.lookupVM(h)
	if vs == nil {
		return
	}
	c.sched.Step()
	work(vs)
}
`
	got := runOne(t, HotPath, "internal/core", src)
	wantFindings(t, got, "c.sched.Step drives the event loop")
}

// Packages outside the event-code set are not checked.
func TestHandleSafetyOtherPackageClean(t *testing.T) {
	src := `package workload

func (c *ctrl) step(h handle) {
	st := c.vmSlab.Get(h)
	c.sched.Step()
	work(st)
}
`
	wantFindings(t, runOne(t, HotPath, "internal/workload", src))
}

func TestHandleSafetySuppressed(t *testing.T) {
	src := `package core

func (c *ctrl) step(h handle) {
	st := c.vmSlab.Get(h)
	if st == nil {
		return
	}
	//lint:ignore hotpath fixture: slot provably not recycled here
	c.sched.Step()
	work(st)
}
`
	wantFindings(t, runOne(t, HotPath, "internal/core", src))
}

package backup

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// refPool is the map-based Pool this package shipped before the dense
// layout, kept verbatim (minus metrics) as the oracle the equivalence test
// and the fuzz target drive beside the real one: a scan over every server,
// a (server, group) count map, one map per VM attribute.
type refPool struct {
	cfg         Config
	servers     []*refServer
	next        int
	nextID      int
	byVM        map[string]*refServer
	groupCount  map[refGroupKey]int
	vmGroup     map[string]string
	onProvision func(*refServer)
}

type refGroupKey struct {
	server *refServer
	group  string
}

type refServer struct {
	id  string
	cfg Config
	vms map[string]float64
}

func (s *refServer) register(vmID string, dirtyMBs float64) error {
	if vmID == "" {
		return fmt.Errorf("backup: empty VM id")
	}
	if dirtyMBs < 0 {
		return fmt.Errorf("backup: negative dirty rate %v", dirtyMBs)
	}
	if _, dup := s.vms[vmID]; dup {
		return fmt.Errorf("backup: VM %s already registered on %s", vmID, s.id)
	}
	if len(s.vms) >= s.cfg.MaxVMs {
		return fmt.Errorf("backup: server %s full (%d VMs)", s.id, s.cfg.MaxVMs)
	}
	s.vms[vmID] = dirtyMBs
	return nil
}

func (s *refServer) free() int { return s.cfg.MaxVMs - len(s.vms) }

func newRefPool(cfg Config, onProvision func(*refServer)) *refPool {
	cfg.fillDefaults()
	return &refPool{
		cfg:         cfg,
		byVM:        map[string]*refServer{},
		groupCount:  map[refGroupKey]int{},
		vmGroup:     map[string]string{},
		onProvision: onProvision,
	}
}

func (p *refPool) provision() *refServer {
	p.nextID++
	s := &refServer{id: fmt.Sprintf("backup-%03d", p.nextID), cfg: p.cfg, vms: map[string]float64{}}
	p.servers = append(p.servers, s)
	if p.onProvision != nil {
		p.onProvision(s)
	}
	return s
}

func (p *refPool) assignSpread(vmID string, dirtyMBs float64, group string) (*refServer, error) {
	if _, dup := p.byVM[vmID]; dup {
		return nil, fmt.Errorf("backup: VM %s already assigned", vmID)
	}
	if len(p.servers) == 0 {
		p.provision()
	}
	var best *refServer
	bestIdx := -1
	bestGroup := -1
	for i := 0; i < len(p.servers); i++ {
		idx := (p.next + i) % len(p.servers)
		s := p.servers[idx]
		if s.free() <= 0 {
			continue
		}
		g := 0
		if group != "" {
			g = p.groupCount[refGroupKey{s, group}]
		}
		if best == nil || g < bestGroup {
			best = s
			bestIdx = idx
			bestGroup = g
			if g == 0 && group != "" {
				break
			}
			if group == "" {
				break
			}
		}
	}
	if best == nil {
		best = p.provision()
		for i, s := range p.servers {
			if s == best {
				bestIdx = i
				break
			}
		}
	}
	p.next = (bestIdx + 1) % len(p.servers)
	if err := best.register(vmID, dirtyMBs); err != nil {
		return nil, err
	}
	p.byVM[vmID] = best
	if group != "" {
		p.groupCount[refGroupKey{best, group}]++
		p.vmGroup[vmID] = group
	}
	return best, nil
}

func (p *refPool) release(vmID string) *refServer {
	s, ok := p.byVM[vmID]
	if !ok {
		return nil
	}
	delete(s.vms, vmID)
	delete(p.byVM, vmID)
	if g, ok := p.vmGroup[vmID]; ok {
		if p.groupCount[refGroupKey{s, g}] > 0 {
			p.groupCount[refGroupKey{s, g}]--
		}
		delete(p.vmGroup, vmID)
	}
	return s
}

func (p *refPool) remove(s *refServer) error {
	if len(s.vms) > 0 {
		return fmt.Errorf("backup: server %s still backs %d VMs", s.id, len(s.vms))
	}
	for i, cur := range p.servers {
		if cur == s {
			p.servers = append(p.servers[:i], p.servers[i+1:]...)
			if len(p.servers) == 0 {
				p.next = 0
			} else {
				p.next %= len(p.servers)
			}
			for k := range p.groupCount {
				if k.server == s {
					delete(p.groupCount, k)
				}
			}
			return nil
		}
	}
	return fmt.Errorf("backup: server %s not in pool", s.id)
}

func (p *refPool) maxVMsPerServer() int {
	var max int
	for _, s := range p.servers {
		if len(s.vms) > max {
			max = len(s.vms)
		}
	}
	return max
}

func (p *refPool) maxGroupPerServer() int {
	var max int
	for _, n := range p.groupCount {
		if n > max {
			max = n
		}
	}
	return max
}

func (p *refPool) distribution() []int {
	out := make([]int, len(p.servers))
	for i, s := range p.servers {
		out[i] = len(s.vms)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(out)))
	return out
}

// poolModel drives a Pool and the reference with one op stream and fails on
// the first divergence. Both pools get the same reentrant onProvision: every
// third server provisioned brings spare streams with it, assigned from
// inside the callback — sometimes enough of them to fill the new server, so
// the outer assignment hits the "server full" error path too.
type poolModel struct {
	t       testing.TB
	pool    *Pool
	ref     *refPool
	live    []string     // assigned VM ids, in assignment order
	retired []*Server    // servers removed from pool, for the not-in-pool case
	refGone []*refServer // their reference twins
	spares  int          // spare ids minted so far
	nextVM  int
}

var modelGroups = []string{"", "m3.medium/us-east-1a/spot", "m3.large/us-east-1a/spot", "m3.xlarge/us-east-1b/spot", "c3.large/us-east-1c/spot", "r3.large/us-east-1d/spot", "m3.2xlarge/us-east-1e/spot"}

func newPoolModel(t testing.TB, maxVMs int) *poolModel {
	m := &poolModel{t: t}
	// The real pool's callback mints the spares a server arrives with; the
	// reference's callback, reached at the same point of the same op one
	// call later, replays them by server id.
	minted := map[string][]string{}
	m.pool = NewPool(Config{MaxVMs: maxVMs}, func(s *Server) {
		if m.pool.nextID%3 != 0 {
			return
		}
		n := 1 + m.pool.nextID%maxVMs // up to maxVMs: fills the new server
		for i := 0; i < n; i++ {
			m.spares++
			id := fmt.Sprintf("spare-%d", m.spares)
			minted[s.ID()] = append(minted[s.ID()], id)
			if _, err := m.pool.AssignSpread(id, 1.5, "spares"); err == nil {
				m.live = append(m.live, id)
			}
		}
	})
	m.ref = newRefPool(Config{MaxVMs: maxVMs}, func(s *refServer) {
		for _, id := range minted[s.id] {
			_, _ = m.ref.assignSpread(id, 1.5, "spares")
		}
	})
	return m
}

func (m *poolModel) assign(id string, dirty float64, group string) {
	// The reference runs second so its callback can replay the spares the
	// real pool's callback minted during this op.
	got, gotErr := m.pool.AssignSpread(id, dirty, group)
	want, wantErr := m.ref.assignSpread(id, dirty, group)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		m.t.Fatalf("AssignSpread(%q, %v, %q): err %v, reference %v", id, dirty, group, gotErr, wantErr)
	}
	if gotErr == nil {
		if got.ID() != want.id {
			m.t.Fatalf("AssignSpread(%q, %q) chose %s, reference %s", id, group, got.ID(), want.id)
		}
		m.live = append(m.live, id)
	}
	m.check()
}

func (m *poolModel) release(id string) {
	got, want := m.pool.Release(id), m.ref.release(id)
	if (got == nil) != (want == nil) || (got != nil && got.ID() != want.id) {
		m.t.Fatalf("Release(%q) = %v, reference %v", id, got, want)
	}
	if i := slices.Index(m.live, id); i >= 0 {
		m.live = slices.Delete(m.live, i, i+1)
	}
	// Retire a drained server the way the controller does.
	if got != nil && got.VMs() == 0 {
		m.remove(got, want)
	}
	m.check()
}

func (m *poolModel) remove(s *Server, r *refServer) {
	gotErr, wantErr := m.pool.Remove(s), m.ref.remove(r)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		m.t.Fatalf("Remove(%s): err %v, reference %v", s.ID(), gotErr, wantErr)
	}
	if gotErr == nil {
		m.retired, m.refGone = append(m.retired, s), append(m.refGone, r)
	}
}

// check compares everything observable: cursor, server order and load,
// the three distribution statistics, and the open list's own invariant.
func (m *poolModel) check() {
	p, r := m.pool, m.ref
	if p.next != r.next {
		m.t.Fatalf("cursor = %d, reference %d", p.next, r.next)
	}
	if p.Size() != len(r.servers) || p.TotalVMs() != len(r.byVM) {
		m.t.Fatalf("size/VMs = %d/%d, reference %d/%d", p.Size(), p.TotalVMs(), len(r.servers), len(r.byVM))
	}
	var open []*Server
	for i, s := range p.servers {
		if s.ID() != r.servers[i].id || s.VMs() != len(r.servers[i].vms) {
			m.t.Fatalf("server %d = %s with %d VMs, reference %s with %d", i, s.ID(), s.VMs(), r.servers[i].id, len(r.servers[i].vms))
		}
		if s.pos != i {
			m.t.Fatalf("server %s has pos %d at index %d", s.ID(), s.pos, i)
		}
		if s.Free() > 0 {
			open = append(open, s)
		}
	}
	if !slices.Equal(p.open, open) {
		m.t.Fatalf("open list out of step with the servers that have room")
	}
	if got, want := p.Distribution(), r.distribution(); !slices.Equal(got, want) {
		m.t.Fatalf("Distribution = %v, reference %v", got, want)
	}
	if got, want := p.MaxGroupPerServer(), r.maxGroupPerServer(); got != want {
		m.t.Fatalf("MaxGroupPerServer = %d, reference %d", got, want)
	}
	if got, want := p.MaxVMsPerServer(), r.maxVMsPerServer(); got != want {
		m.t.Fatalf("MaxVMsPerServer = %d, reference %d", got, want)
	}
}

// step decodes one op from two bytes of entropy.
func (m *poolModel) step(op, arg byte) {
	switch {
	case op < 140: // fresh assignment over 0–6 groups, three dirty rates
		m.nextVM++
		m.assign(fmt.Sprintf("nvm-%06d", m.nextVM), []float64{2.8, 0.5, 7.25}[arg%3], modelGroups[int(arg)%len(modelGroups)])
	case op < 215: // release, biased toward old VMs so servers drain
		if len(m.live) > 0 {
			m.release(m.live[int(arg)%min(len(m.live), 64)])
		}
	case op < 225: // error cases: duplicate, empty id, negative rate, unknown release
		switch arg % 4 {
		case 0:
			if len(m.live) > 0 {
				m.assign(m.live[int(arg)%len(m.live)], 2.8, modelGroups[1])
			}
		case 1:
			m.assign("", 2.8, modelGroups[int(arg)%len(modelGroups)])
		case 2:
			m.nextVM++
			m.assign(fmt.Sprintf("nvm-%06d", m.nextVM), -1, modelGroups[2])
		default:
			m.release("ghost")
		}
	case op < 235: // remove a server that still backs VMs, or one already gone
		if arg%2 == 0 && len(m.pool.servers) > 0 {
			i := int(arg) % len(m.pool.servers)
			if m.pool.servers[i].VMs() > 0 {
				m.remove(m.pool.servers[i], m.ref.servers[i])
			}
		} else if len(m.retired) > 0 {
			i := int(arg) % len(m.retired)
			m.remove(m.retired[i], m.refGone[i])
		}
		m.check()
	case op < 246:
		// nothing: keeps the fleet growing slowly
	default: // a burst: drain one server completely, then retire it
		if len(m.pool.servers) > 0 {
			s := m.pool.servers[int(arg)%len(m.pool.servers)]
			for _, id := range s.VMIDs() {
				m.release(id)
			}
		}
	}
}

func TestPoolMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := newPoolModel(t, 2+int(seed)%5) // capacities 2–6: servers fill, drain and retire constantly
		for i := 0; i < 5000; i++ {
			m.step(byte(rng.Intn(256)), byte(rng.Intn(256)))
		}
		if m.pool.Size() == 0 || len(m.retired) == 0 {
			t.Fatalf("seed %d: %d servers, %d retired — the stream exercised nothing", seed, m.pool.Size(), len(m.retired))
		}
	}
}

func FuzzPool(f *testing.F) {
	f.Add(3, []byte{0, 1, 0, 2, 0, 3, 130, 0, 0, 4, 240, 0, 220, 1, 230, 0})
	f.Add(2, []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 250, 1, 231, 1})
	f.Fuzz(func(t *testing.T, maxVMs int, ops []byte) {
		if maxVMs < 1 || maxVMs > 8 {
			t.Skip()
		}
		m := newPoolModel(t, maxVMs)
		for i := 0; i+1 < len(ops); i += 2 {
			m.step(ops[i], ops[i+1])
		}
	})
}

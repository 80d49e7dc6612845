package backup

import (
	"fmt"
	"slices"
	"sort"
)

// Pool manages a fleet of backup servers. VMs are mapped round-robin across
// servers (§4.2): spreading one spot pool's VMs over many backup servers
// bounds the restore load any single revocation storm puts on one server.
// When every server is full the pool provisions a new one via the supplied
// callback (the controller rents a fresh m3.xlarge from the platform).
type Pool struct {
	cfg     Config
	servers []*Server
	next    int // round-robin cursor: the servers index a scan starts from
	nextID  int
	// open holds the servers with a free slot, ordered by their position in
	// servers: a scan walks it cyclically from the cursor and so visits the
	// servers with room in exactly the order a walk over servers would,
	// without stepping over the full ones.
	open []*Server
	// byVM tracks which server holds each VM, and under which spread group.
	byVM map[string]assignment
	// groupIDs interns spread-group strings; a Server counts its VMs per
	// group in a slice indexed by these ids.
	groupIDs map[string]int
	// onProvision, if set, is invoked after the pool adds a server.
	onProvision func(*Server)
	// metrics, if set, mirrors fleet state into an obs.Registry.
	metrics *Metrics
}

type assignment struct {
	server *Server
	group  int // interned spread group, noGroup when assigned without one
}

const noGroup = -1

// NewPool creates an empty pool whose servers use cfg.
func NewPool(cfg Config, onProvision func(*Server)) *Pool {
	cfg.fillDefaults()
	return &Pool{
		cfg:         cfg,
		byVM:        map[string]assignment{},
		groupIDs:    map[string]int{},
		onProvision: onProvision,
	}
}

// Servers returns the pool's servers in provisioning order.
func (p *Pool) Servers() []*Server { return append([]*Server(nil), p.servers...) }

// Size reports the number of provisioned backup servers.
func (p *Pool) Size() int { return len(p.servers) }

// provision adds a fresh server.
func (p *Pool) provision() *Server {
	p.nextID++
	s := NewServer(fmt.Sprintf("backup-%03d", p.nextID), p.cfg)
	s.pos = len(p.servers)
	p.servers = append(p.servers, s)
	p.open = append(p.open, s) // the highest position: open stays ordered
	p.metrics.sync(p, s)
	if p.onProvision != nil {
		p.onProvision(s)
	}
	return s
}

// openIndex is the index in open of the first server at or after pos.
func (p *Pool) openIndex(pos int) int {
	return sort.Search(len(p.open), func(i int) bool { return p.open[i].pos >= pos })
}

// groupVMs reports how many of the server's VMs belong to spread group g.
func (s *Server) groupVMs(g int) int32 {
	if g < 0 || g >= len(s.groups) {
		return 0
	}
	return s.groups[g]
}

// AssignSpread registers a VM's checkpoint stream, spreading VMs of the
// same group (their spot pool, §4.2) across backup servers: "since each
// spot pool is subject to concurrent revocations, spreading one pool's VMs
// across different backup servers reduces the probability of any one
// backup server experiencing a large number of concurrent revocations."
// Among servers with room, the one holding the fewest VMs of this group
// wins; ties resolve round-robin. An empty group degrades to plain
// round-robin.
func (p *Pool) AssignSpread(vmID string, dirtyMBs float64, group string) (*Server, error) {
	if _, dup := p.byVM[vmID]; dup {
		return nil, fmt.Errorf("backup: VM %s already assigned", vmID)
	}
	if len(p.servers) == 0 {
		p.provision()
	}
	g := noGroup
	if group != "" {
		var known bool
		if g, known = p.groupIDs[group]; !known {
			g = len(p.groupIDs)
			p.groupIDs[group] = g
		}
	}
	var best *Server
	var bestGroup int32
	i, n := p.openIndex(p.next), len(p.open)
	for range n {
		if i == n {
			i = 0
		}
		s := p.open[i]
		i++
		if c := s.groupVMs(g); best == nil || c < bestGroup {
			best, bestGroup = s, c
			if c == 0 {
				break // cannot do better; without a group every count is zero
			}
		}
	}
	if best == nil {
		// An onProvision callback may re-enter the pool (assigning spares,
		// even growing the fleet further), appending servers after the one
		// just provisioned and moving the cursor; best.pos is where the new
		// server actually sits, not len-1.
		best = p.provision()
	}
	// Advance the cursor past the chosen server.
	p.next = (best.pos + 1) % len(p.servers)
	if err := best.Register(vmID, dirtyMBs); err != nil {
		return nil, err
	}
	if best.Free() == 0 {
		i := p.openIndex(best.pos)
		p.open = slices.Delete(p.open, i, i+1)
	}
	p.byVM[vmID] = assignment{best, g}
	if g != noGroup {
		for len(best.groups) <= g {
			best.groups = append(best.groups, 0)
		}
		best.groups[g]++
	}
	p.metrics.assigned(p, best)
	return best, nil
}

// Release removes a VM's stream and returns the server it was on (nil for
// unknown VMs), so the caller can retire servers that drained.
func (p *Pool) Release(vmID string) *Server {
	a, ok := p.byVM[vmID]
	if !ok {
		return nil
	}
	s := a.server
	s.Unregister(vmID)
	delete(p.byVM, vmID)
	if a.group != noGroup {
		s.groups[a.group]--
	}
	if s.Free() == 1 { // was full: it has room again
		p.open = slices.Insert(p.open, p.openIndex(s.pos), s)
	}
	p.metrics.sync(p, s)
	return s
}

// Remove retires a drained server from the pool. It refuses to remove a
// server that still backs VMs.
func (p *Pool) Remove(s *Server) error {
	if s.VMs() > 0 {
		return fmt.Errorf("backup: server %s still backs %d VMs", s.ID(), s.VMs())
	}
	if s.pos >= len(p.servers) || p.servers[s.pos] != s {
		return fmt.Errorf("backup: server %s not in pool", s.ID())
	}
	i := p.openIndex(s.pos) // a drained server has room
	p.open = slices.Delete(p.open, i, i+1)
	p.servers = slices.Delete(p.servers, s.pos, s.pos+1)
	for _, later := range p.servers[s.pos:] {
		later.pos--
	}
	if len(p.servers) == 0 {
		p.next = 0
	} else {
		p.next %= len(p.servers)
	}
	p.metrics.retired(p, s)
	return nil
}

// MaxVMsPerServer reports the largest registration count in the pool — the
// blast radius of one revocation storm on one backup server.
func (p *Pool) MaxVMsPerServer() int {
	var max int
	for _, s := range p.servers {
		if s.VMs() > max {
			max = s.VMs()
		}
	}
	return max
}

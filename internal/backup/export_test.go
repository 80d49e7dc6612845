package backup

import "sort"

// Inspectors the pool tests and FuzzPool read; no program needs them.

// TotalVMs reports registered VMs across all servers.
func (p *Pool) TotalVMs() int { return len(p.byVM) }

// ServerFor returns the server backing vmID, or nil.
func (p *Pool) ServerFor(vmID string) *Server {
	if r, ok := p.byVM[vmID]; ok {
		return p.recs[r].server
	}
	return nil
}

// MaxGroupPerServer reports the largest number of same-group VMs on any
// single backup server — the restore load one pool-wide revocation storm
// would put on that server.
func (p *Pool) MaxGroupPerServer() int {
	var max int32
	for _, s := range p.servers {
		for _, n := range s.groups {
			if n > max {
				max = n
			}
		}
	}
	return int(max)
}

// Distribution returns registration counts per server, sorted descending.
func (p *Pool) Distribution() []int {
	out := make([]int, len(p.servers))
	for i, s := range p.servers {
		out[i] = s.VMs()
	}
	sort.Sort(sort.Reverse(sort.IntSlice(out)))
	return out
}

// Unregister removes a VM's stream by id, the way a standalone server
// would; unknown VMs are a no-op. Pool.Release removes by position and must
// leave the streams in the order this does (TestReleaseKeepsStreamOrder).
func (s *Server) Unregister(vmID string) {
	if i := s.index(vmID); i >= 0 {
		s.removeAt(int32(i))
	}
}

// VMIDs returns registered VM ids in sorted order.
func (s *Server) VMIDs() []string {
	out := append(make([]string, 0, len(s.ids)), s.ids...)
	sort.Strings(out)
	return out
}

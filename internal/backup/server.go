package backup

import (
	"fmt"

	"repro/internal/obs"
)

// The m3.xlarge backup server of the prototype (§5). Its capacity is fixed;
// only the I/O tuning (Config.OptimizedIO) and the registration cap vary.
const (
	// ingestMBs is the sustained checkpoint absorption rate: the minimum
	// of network bandwidth and (cache-absorbed) disk write bandwidth. It
	// saturates at ~39 VMs × 2.8 MB/s, Figure 7's knee.
	ingestMBs = 110.0
	// BaseReadMBs is the raw single-stream restore read bandwidth from the
	// checkpoint store: a 3.84 GB image in ~100 s, Figure 8's single restore.
	BaseReadMBs = 38.4
	// batchBoost is the per-additional-concurrent-restore gain in
	// aggregate read bandwidth for batchable access patterns: 10
	// concurrent restores reach ~2.1× aggregate bandwidth (Figure 8).
	batchBoost = 0.12
	// lazyOptimizedPenalty scales optimized lazy reads relative to
	// sequential ones, the residual seek cost (Figure 8b).
	lazyOptimizedPenalty = 0.9
)

// Config describes what varies between backup servers.
type Config struct {
	// OptimizedIO applies SpotCheck's backup tuning: ext4 write-back
	// journalling, noatime, fadvise WILLNEED + access-pattern hints, page
	// cache tuning. It doubles effective read bandwidth and lets lazy
	// (random) reads batch like sequential ones.
	OptimizedIO bool
	// MaxVMs is the registration capacity. The paper assigns at most
	// 35-40 VMs per backup server; default 40.
	MaxVMs int
}

// DefaultConfig returns the m3.xlarge backup server the prototype uses.
func DefaultConfig() Config { return Config{MaxVMs: 40} }

func (c *Config) fillDefaults() {
	if c.MaxVMs <= 0 {
		c.MaxVMs = DefaultConfig().MaxVMs
	}
}

// Server is one backup server multiplexing checkpoint streams.
type Server struct {
	id  string
	cfg Config
	// ids and dirty are the registered streams as dense parallel arrays: VM
	// id and dirty rate (MB/s) of stream i. A stream leaves by swap-remove,
	// so the order is a function of the register/unregister sequence alone
	// and the ingest sum over dirty repeats bit for bit.
	ids   []string
	dirty []float64
	// restoring counts in-flight restorations.
	restoring int

	// Kept by the Pool this server belongs to (zero on a standalone one):
	// groups counts resident VMs per pool-interned spread group, pos is the
	// server's index in the pool, and ingest is its resolved gauge.
	groups []int32
	pos    int
	ingest *obs.Gauge
}

// NewServer builds a backup server. Zero config fields take defaults.
func NewServer(id string, cfg Config) *Server {
	cfg.fillDefaults()
	return &Server{id: id, cfg: cfg}
}

// ID returns the server's identifier.
func (s *Server) ID() string { return s.id }

// Register adds a VM's checkpoint stream. It fails when the server is at
// its VM capacity. A server that belongs to a Pool takes streams through
// the pool (AssignSpread/Release), which tracks which servers have room.
func (s *Server) Register(vmID string, dirtyMBs float64) error {
	if vmID == "" {
		return fmt.Errorf("backup: empty VM id")
	}
	if dirtyMBs < 0 {
		return fmt.Errorf("backup: negative dirty rate %v", dirtyMBs)
	}
	if s.Has(vmID) {
		return fmt.Errorf("backup: VM %s already registered on %s", vmID, s.id)
	}
	if len(s.ids) >= s.cfg.MaxVMs {
		return fmt.Errorf("backup: server %s full (%d VMs)", s.id, s.cfg.MaxVMs)
	}
	s.ids = append(s.ids, vmID)
	s.dirty = append(s.dirty, dirtyMBs)
	return nil
}

// Unregister removes a VM's stream; unknown VMs are a no-op.
func (s *Server) Unregister(vmID string) {
	i := s.index(vmID)
	if i < 0 {
		return
	}
	last := len(s.ids) - 1
	s.ids[i], s.dirty[i] = s.ids[last], s.dirty[last]
	s.ids[last] = ""
	s.ids, s.dirty = s.ids[:last], s.dirty[:last]
}

// index finds a stream by VM id; a server holds at most MaxVMs (~40), so a
// scan of the dense array beats hashing the id.
func (s *Server) index(vmID string) int {
	for i, id := range s.ids {
		if id == vmID {
			return i
		}
	}
	return -1
}

// Has reports whether the VM is registered here.
func (s *Server) Has(vmID string) bool { return s.index(vmID) >= 0 }

// VMs reports the number of registered streams.
func (s *Server) VMs() int { return len(s.ids) }

// Free reports remaining registration slots.
func (s *Server) Free() int { return s.cfg.MaxVMs - len(s.ids) }

// IngestUtilization is the ratio of the aggregate dirty rate to ingest
// capacity. Values above the knee degrade resident VMs (Figure 7). The sum
// runs over the stream array front to back.
func (s *Server) IngestUtilization() float64 {
	var sum float64
	for _, d := range s.dirty {
		sum += d
	}
	return sum / ingestMBs
}

// BeginRestore reserves a restoration slot and returns the per-VM read
// bandwidth all in-flight restorations now see. Call EndRestore when done.
func (s *Server) BeginRestore(lazy bool) float64 {
	s.restoring++
	return s.RestoreReadMBsPerVM(s.restoring, lazy)
}

// EndRestore releases a restoration slot.
func (s *Server) EndRestore() {
	if s.restoring > 0 {
		s.restoring--
	}
}

// Restoring reports in-flight restorations.
func (s *Server) Restoring() int { return s.restoring }

// AggregateReadMBs returns the total read bandwidth available to n
// concurrent restorations with the given access pattern.
//
//   - Sequential (full restore): batching grows aggregate bandwidth
//     (1 + batchBoost per extra stream).
//   - Lazy, unoptimized: random demand reads defeat prefetching and
//     caching; aggregate bandwidth stays at the single-stream rate — which
//     is why 10 concurrent unoptimized lazy restores take far longer than
//     10 stop-and-copy restores (Figure 8b).
//   - Lazy, optimized: fadvise(RANDOM/WILLNEED) tells the kernel what the
//     restorer will touch; reads batch almost like sequential ones at a
//     small residual penalty.
func (s *Server) AggregateReadMBs(n int, lazy bool) float64 {
	if n <= 0 {
		n = 1
	}
	base := BaseReadMBs
	if s.cfg.OptimizedIO {
		base *= 2
	}
	batch := 1 + batchBoost*float64(n-1)
	switch {
	case !lazy:
		return base * batch
	case s.cfg.OptimizedIO:
		return base * lazyOptimizedPenalty * batch
	default:
		return base
	}
}

// RestoreReadMBsPerVM is the per-restoration share of aggregate bandwidth:
// SpotCheck throttles each migration/restoration with tc so one VM's
// restore cannot starve another's (§5).
func (s *Server) RestoreReadMBsPerVM(n int, lazy bool) float64 {
	if n <= 0 {
		n = 1
	}
	return s.AggregateReadMBs(n, lazy) / float64(n)
}

package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/analysis"
	"repro/internal/backup"
	"repro/internal/cloud"
	"repro/internal/cloudsim"
	"repro/internal/migration"
	"repro/internal/nestedvm"
	"repro/internal/simkit"
	"repro/internal/spotmarket"
	"repro/internal/workload"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// ---------------------------------------------------------------------------
// Table 1: latency of SpotCheck's control operations

// Table1 measures each native control operation n times on the simulated
// platform (the paper uses 20 measurements over a week on EC2, m3.medium)
// and reports median/mean/max/min seconds.
func Table1(n int, seed int64) (*analysis.Table, error) {
	sched := simkit.NewScheduler()
	flat, err := spotmarket.NewTrace([]spotmarket.Point{{T: 0, Price: 0.01}}, 10000*simkit.Hour)
	if err != nil {
		return nil, err
	}
	plat, err := cloudsim.New(sched, cloudsim.Config{
		Traces: spotmarket.Set{{Type: cloud.M3Medium, Zone: EvalZone}: flat},
		Seed:   seed,
	})
	if err != nil {
		return nil, err
	}
	// measure runs op n times; each run records the virtual time between
	// issuing the operation and its completion callback.
	measure := func(op func(done func())) []float64 {
		out := make([]float64, 0, n)
		for i := 0; i < n; i++ {
			start := sched.Now()
			var doneAt simkit.Time
			finished := false
			op(func() { doneAt = sched.Now(); finished = true })
			sched.Run(0)
			if !finished {
				continue
			}
			out = append(out, doneAt.Sub(start).Seconds())
		}
		return out
	}

	var termSamples []float64
	var detachEBS, attachEBS, attachIP, detachIP []float64

	// Launch latencies (the instance is terminated between samples so the
	// platform does not accumulate fleet state).
	spotSamples := measure(func(done func()) {
		plat.RequestSpot(cloud.M3Medium, EvalZone, cloud.OnDemandPrice(cloud.M3Medium), func(inst *cloud.Instance, err error) {
			if err == nil {
				done()
				_ = plat.Terminate(inst.ID, nil)
			}
		})
	})
	odSamples := measure(func(done func()) {
		plat.RunOnDemand(cloud.M3Medium, EvalZone, func(inst *cloud.Instance, err error) {
			if err == nil {
				done()
				_ = plat.Terminate(inst.ID, nil)
			}
		})
	})
	// Terminate latency, measured from the terminate call on an
	// already-running instance.
	for i := 0; i < n; i++ {
		var inst *cloud.Instance
		plat.RunOnDemand(cloud.M3Medium, EvalZone, func(in *cloud.Instance, err error) { inst = in })
		sched.Run(0)
		if inst == nil {
			continue
		}
		start := sched.Now()
		var doneAt simkit.Time
		_ = plat.Terminate(inst.ID, func(error) { doneAt = sched.Now() })
		sched.Run(0)
		termSamples = append(termSamples, doneAt.Sub(start).Seconds())
	}

	// Volume and interface operations on a long-lived host.
	var host *cloud.Instance
	plat.RunOnDemand(cloud.M3Medium, EvalZone, func(in *cloud.Instance, err error) { host = in })
	sched.Run(0)
	if host == nil {
		return nil, fmt.Errorf("experiments: host launch failed")
	}
	vol, err := plat.CreateVolume(8)
	if err != nil {
		return nil, err
	}
	addr, err := plat.AllocateIP()
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		start := sched.Now()
		var t1 simkit.Time
		if err := plat.AttachVolume(vol.ID, host.ID, func(error) { t1 = sched.Now() }); err != nil {
			return nil, err
		}
		sched.Run(0)
		attachEBS = append(attachEBS, t1.Sub(start).Seconds())
		start = sched.Now()
		if err := plat.DetachVolume(vol.ID, func(error) { t1 = sched.Now() }); err != nil {
			return nil, err
		}
		sched.Run(0)
		detachEBS = append(detachEBS, t1.Sub(start).Seconds())
		start = sched.Now()
		if err := plat.AssignIP(host.ID, addr, func(error) { t1 = sched.Now() }); err != nil {
			return nil, err
		}
		sched.Run(0)
		attachIP = append(attachIP, t1.Sub(start).Seconds())
		start = sched.Now()
		if err := plat.UnassignIP(host.ID, addr, func(error) { t1 = sched.Now() }); err != nil {
			return nil, err
		}
		sched.Run(0)
		detachIP = append(detachIP, t1.Sub(start).Seconds())
	}

	t := analysis.NewTable("Table 1: latency of SpotCheck operations (m3.medium)",
		"Operation", "Median(sec)", "Mean(sec)", "Max(sec)", "Min(sec)")
	addRow := func(name string, samples []float64) {
		s := analysis.Summarize(samples)
		t.AddRow(name, s.Median, s.Mean, s.Max, s.Min)
	}
	addRow("Start spot instance", spotSamples)
	addRow("Start on-demand instance", odSamples)
	addRow("Terminate instance", termSamples)
	addRow("Unmount and detach EBS", detachEBS)
	addRow("Attach and mount EBS", attachEBS)
	addRow("Attach Network interface", attachIP)
	addRow("Detach Network interface", detachIP)
	return t, nil
}

// ---------------------------------------------------------------------------
// Figure 7: backup-server multiplexing

// Fig7Row is one x-point of Figure 7.
type Fig7Row struct {
	VMsPerBackup int
	SpecJBBBops  float64
	TPCWMs       float64
}

// fig7Points are Figure 7's x-axis: nested VMs checkpointing to one backup
// server. The zero point is "no checkpointing at all".
var fig7Points = [...]int{0, 1, 10, 20, 30, 35, 40, 45, 50}

// Fig7 reproduces Figure 7: SPECjbb throughput and TPC-W response time as
// the number of nested VMs checkpointing to one backup server grows.
func Fig7() []Fig7Row {
	jbb, tpcw := workload.SPECjbb(), workload.TPCW()
	var rows []Fig7Row
	for _, n := range fig7Points {
		srv := backup.NewServer("bench", backup.Config{MaxVMs: 128, OptimizedIO: true})
		for i := 0; i < n; i++ {
			// The mixed workload dirty rate (~2.8 MB/s average).
			if err := srv.Register(fmt.Sprintf("vm-%03d", i), (jbb.DirtyMBs+tpcw.DirtyMBs)/2); err != nil {
				break
			}
		}
		cond := workload.Conditions{
			Checkpointing:     n > 0,
			BackupUtilization: srv.IngestUtilization(),
		}
		rows = append(rows, Fig7Row{
			VMsPerBackup: n,
			SpecJBBBops:  jbb.ThroughputBops(cond),
			TPCWMs:       tpcw.ResponseTimeMs(cond),
		})
	}
	return rows
}

// Fig7Table renders Figure 7's two panels as one table.
func Fig7Table(rows []Fig7Row) *analysis.Table {
	t := analysis.NewTable("Fig 7: effect of VMs per backup server",
		"VMs/backup", "SpecJBB throughput (bops)", "TPC-W response time (ms)")
	for _, r := range rows {
		t.AddRow(r.VMsPerBackup, r.SpecJBBBops, r.TPCWMs)
	}
	return t
}

// ---------------------------------------------------------------------------
// Figure 8: downtime and degraded time under concurrent restorations

// Fig8Row is one (concurrency, variant) cell of Figure 8.
type Fig8Row struct {
	Concurrent int
	// Full-restore downtime (Figure 8a).
	UnoptFullDowntimeSec float64
	SCFullDowntimeSec    float64
	// Lazy-restore degraded duration (Figure 8b).
	UnoptLazyDegradedSec float64
	SCLazyDegradedSec    float64
}

// fig8Levels are Figure 8's x-axis: m3.medium nested VMs restored at once
// from one backup server.
var fig8Levels = [...]int{1, 5, 10}

// Fig8 reproduces Figure 8.
func Fig8() ([]Fig8Row, error) {
	mem := nestedvm.DefaultMemory()
	restoreWindow := func(optimized, lazy bool, n int) (float64, error) {
		srv := backup.NewServer("bench", backup.Config{OptimizedIO: optimized})
		perVM := srv.RestoreReadMBsPerVM(n, lazy)
		res, err := migration.SimulateRestore(migration.RestoreSpec{
			MemoryMB:   mem.SizeMB,
			SkeletonMB: mem.SkeletonMB,
			ReadMBs:    perVM,
			Lazy:       lazy,
		})
		if err != nil {
			return 0, err
		}
		if lazy {
			return res.DegradedTime.Seconds(), nil
		}
		return res.Downtime.Seconds(), nil
	}
	var rows []Fig8Row
	for _, n := range fig8Levels {
		var row Fig8Row
		var err error
		row.Concurrent = n
		if row.UnoptFullDowntimeSec, err = restoreWindow(false, false, n); err != nil {
			return nil, err
		}
		if row.SCFullDowntimeSec, err = restoreWindow(true, false, n); err != nil {
			return nil, err
		}
		if row.UnoptLazyDegradedSec, err = restoreWindow(false, true, n); err != nil {
			return nil, err
		}
		if row.SCLazyDegradedSec, err = restoreWindow(true, true, n); err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig8Table renders Figure 8's two panels.
func Fig8Table(rows []Fig8Row) *analysis.Table {
	t := analysis.NewTable("Fig 8: concurrent restoration from one backup server (seconds)",
		"Concurrent", "Unopt full downtime", "SpotCheck full downtime",
		"Unopt lazy degraded", "SpotCheck lazy degraded")
	for _, r := range rows {
		t.AddRow(r.Concurrent, r.UnoptFullDowntimeSec, r.SCFullDowntimeSec,
			r.UnoptLazyDegradedSec, r.SCLazyDegradedSec)
	}
	return t
}

// ---------------------------------------------------------------------------
// Figure 9: TPC-W response time during lazy restoration

// Fig9Row is one x-point of Figure 9.
type Fig9Row struct {
	ConcurrentRestores int
	TPCWMs             float64
}

// fig9Levels are Figure 9's x-axis: concurrent lazy restorations. Zero is
// normal operation.
var fig9Levels = [...]int{0, 1, 5, 10}

// Fig9 reproduces Figure 9: the restoring VM's TPC-W response time against
// the number of concurrent lazy restorations. Per-VM bandwidth throttling
// keeps the restoring response time flat.
func Fig9() []Fig9Row {
	tpcw := workload.TPCW()
	var rows []Fig9Row
	for _, n := range fig9Levels {
		cond := workload.Conditions{LazyRestoring: n > 0}
		rows = append(rows, Fig9Row{
			ConcurrentRestores: n,
			TPCWMs:             tpcw.ResponseTimeMs(cond),
		})
	}
	return rows
}

// Fig9Table renders Figure 9.
func Fig9Table(rows []Fig9Row) *analysis.Table {
	t := analysis.NewTable("Fig 9: TPC-W response time during lazy restoration",
		"Concurrent restores", "Response time (ms)")
	for _, r := range rows {
		t.AddRow(r.ConcurrentRestores, r.TPCWMs)
	}
	return t
}

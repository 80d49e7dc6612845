package main

import (
	"repro/internal/cloud"
)

// opGroups are the provider operation groups the per-layer metrics report.
var opGroups = []string{"request_spot", "run_on_demand", "terminate", "spot_price",
	"accrued_cost", "ip_ops", "volume_ops", "instance"}

// timedProvider is a cloud.Provider decorator that times every call into
// the provider it wraps, and every completion callback and revocation
// warning the provider hands back, as op-level spans on a recorder. It
// changes nothing else: a run through it must produce the same report as a
// run without it, which the traced runs check.
//
// layer is where time inside a call belongs ("cloudsim", or "cloudchaos"
// when the wrapped provider is the fault injector); cbLayer is where time
// inside a completion callback belongs (the caller: "core.callback", or
// "cloudchaos" for the decorator between the injector and the platform);
// warnLayer is the same for revocation listeners, and "" forwards them
// unwrapped.
type timedProvider struct {
	cloud.Provider
	rec                         *recorder
	layer, cbLayer, warnLayer   string
	failedCalls, warningsPassed int64
}

func (p *timedProvider) enter(op string) { p.rec.enter(p.layer, op) }

func (p *timedProvider) exit(err error) {
	p.rec.exit()
	if err != nil {
		p.failedCalls++
	}
}

func (p *timedProvider) callback(cb cloud.Callback) cloud.Callback {
	if cb == nil {
		return nil
	}
	return func(err error) {
		if err != nil {
			p.failedCalls++
		}
		p.rec.enter(p.cbLayer, "")
		cb(err)
		p.rec.exit()
	}
}

func (p *timedProvider) instanceCallback(cb cloud.InstanceCallback) cloud.InstanceCallback {
	if cb == nil {
		return nil
	}
	return func(inst *cloud.Instance, err error) {
		if err != nil {
			p.failedCalls++
		}
		p.rec.enter(p.cbLayer, "")
		cb(inst, err)
		p.rec.exit()
	}
}

func (p *timedProvider) SpotPrice(typ string, zone cloud.Zone) (cloud.USD, error) {
	p.enter("spot_price")
	v, err := p.Provider.SpotPrice(typ, zone)
	p.exit(err)
	return v, err
}

func (p *timedProvider) RunOnDemand(typ string, zone cloud.Zone, cb cloud.InstanceCallback) {
	p.enter("run_on_demand")
	p.Provider.RunOnDemand(typ, zone, p.instanceCallback(cb))
	p.exit(nil)
}

func (p *timedProvider) RequestSpot(typ string, zone cloud.Zone, bid cloud.USD, cb cloud.InstanceCallback) {
	p.enter("request_spot")
	p.Provider.RequestSpot(typ, zone, bid, p.instanceCallback(cb))
	p.exit(nil)
}

func (p *timedProvider) Terminate(id cloud.InstanceID, cb cloud.Callback) error {
	p.enter("terminate")
	err := p.Provider.Terminate(id, p.callback(cb))
	p.exit(err)
	return err
}

func (p *timedProvider) CreateVolume(sizeGB int) (*cloud.Volume, error) {
	p.enter("volume_ops")
	v, err := p.Provider.CreateVolume(sizeGB)
	p.exit(err)
	return v, err
}

func (p *timedProvider) AttachVolume(vol cloud.VolumeID, inst cloud.InstanceID, cb cloud.Callback) error {
	p.enter("volume_ops")
	err := p.Provider.AttachVolume(vol, inst, p.callback(cb))
	p.exit(err)
	return err
}

func (p *timedProvider) DetachVolume(vol cloud.VolumeID, cb cloud.Callback) error {
	p.enter("volume_ops")
	err := p.Provider.DetachVolume(vol, p.callback(cb))
	p.exit(err)
	return err
}

func (p *timedProvider) DeleteVolume(vol cloud.VolumeID) error {
	p.enter("volume_ops")
	err := p.Provider.DeleteVolume(vol)
	p.exit(err)
	return err
}

func (p *timedProvider) AllocateIP() (cloud.Addr, error) {
	p.enter("ip_ops")
	a, err := p.Provider.AllocateIP()
	p.exit(err)
	return a, err
}

func (p *timedProvider) AssignIP(inst cloud.InstanceID, addr cloud.Addr, cb cloud.Callback) error {
	p.enter("ip_ops")
	err := p.Provider.AssignIP(inst, addr, p.callback(cb))
	p.exit(err)
	return err
}

func (p *timedProvider) UnassignIP(inst cloud.InstanceID, addr cloud.Addr, cb cloud.Callback) error {
	p.enter("ip_ops")
	err := p.Provider.UnassignIP(inst, addr, p.callback(cb))
	p.exit(err)
	return err
}

func (p *timedProvider) ReleaseIP(addr cloud.Addr) error {
	p.enter("ip_ops")
	err := p.Provider.ReleaseIP(addr)
	p.exit(err)
	return err
}

func (p *timedProvider) Instance(id cloud.InstanceID) (*cloud.Instance, error) {
	p.enter("instance")
	inst, err := p.Provider.Instance(id)
	p.exit(err)
	return inst, err
}

func (p *timedProvider) AccruedCost(id cloud.InstanceID) (cloud.USD, error) {
	p.enter("accrued_cost")
	v, err := p.Provider.AccruedCost(id)
	p.exit(err)
	return v, err
}

func (p *timedProvider) OnRevocationWarning(fn func(cloud.RevocationWarning)) {
	if p.warnLayer == "" {
		p.Provider.OnRevocationWarning(fn)
		return
	}
	p.Provider.OnRevocationWarning(func(w cloud.RevocationWarning) {
		p.warningsPassed++
		p.rec.enter(p.warnLayer, "")
		fn(w)
		p.rec.exit()
	})
}

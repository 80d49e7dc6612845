package cloud

import (
	"errors"
	"math"

	"repro/internal/simkit"
)

// Sentinel errors returned by Provider implementations.
var (
	// ErrNotFound reports an unknown instance, volume, type or address.
	ErrNotFound = errors.New("cloud: not found")
	// ErrBadState reports an operation invalid for the object's state
	// (e.g. attaching a volume that is already attached).
	ErrBadState = errors.New("cloud: invalid state for operation")
	// ErrCapacity reports that the platform has run out of servers of the
	// requested type (the rare on-demand stock-out discussed in §4.3).
	ErrCapacity = errors.New("cloud: insufficient capacity")
	// ErrBidTooLow reports a spot request whose bid is at or below the
	// current market price; the platform rejects it outright.
	ErrBidTooLow = errors.New("cloud: bid not above current spot price")
	// ErrNoAddresses reports VPC address-pool exhaustion.
	ErrNoAddresses = errors.New("cloud: private address pool exhausted")
)

// NoChange is SpotPriceAt's next when the price at t has not changed by Now:
// a time after every simulated instant.
const NoChange = simkit.Time(math.MaxInt64)

// InstanceCallback receives the result of an asynchronous instance launch.
// Exactly one of inst/err is meaningful.
type InstanceCallback func(inst *Instance, err error)

// Callback receives the result of an asynchronous control operation.
type Callback func(err error)

// Provider is the native IaaS control surface SpotCheck rents from.
//
// All mutating operations are asynchronous, mirroring real cloud control
// planes: they validate synchronously (returning an error for immediately
// invalid requests) and invoke the callback when the operation completes
// after its modelled latency. Callbacks run on the simulation's event loop.
type Provider interface {
	// Now reports the current virtual time.
	Now() simkit.Time

	// Catalog lists the instance types the platform offers.
	Catalog() []InstanceType
	// TypeByName looks up an instance type.
	TypeByName(name string) (InstanceType, bool)
	// Zones lists the availability zones of the region.
	Zones() []Zone

	// OnDemandPrice returns the fixed $/hr for the type.
	OnDemandPrice(typ string) (USD, error)
	// SpotPrice returns the current market $/hr in the (type, zone) market.
	// ErrNotFound means the pair has no spot market and is permanent for
	// the provider's lifetime: callers may stop asking (the controller's
	// monitor does). A failure that may clear must be any other error.
	SpotPrice(typ string, zone Zone) (USD, error)
	// SpotPriceAt answers from the market's price history (EC2's
	// DescribeSpotPriceHistory): the price in force at t, which must not lie
	// after Now, and next, the first price change after t when that change
	// has already happened (next <= Now) — NoChange otherwise, so a caller
	// learns nothing about the future. Errors are SpotPrice's, plus any
	// error for a t after Now.
	SpotPriceAt(typ string, zone Zone, t simkit.Time) (price USD, next simkit.Time, err error)

	// RunOnDemand launches a non-revocable instance. The callback fires
	// when the instance reaches StateRunning.
	RunOnDemand(typ string, zone Zone, cb InstanceCallback)
	// RequestSpot launches a revocable instance with the given bid. The
	// callback fires when it reaches StateRunning. The instance will
	// receive a RevocationWarning when the market price rises above bid.
	RequestSpot(typ string, zone Zone, bid USD, cb InstanceCallback)
	// Terminate releases an instance (voluntarily, or after a warning).
	Terminate(id InstanceID, cb Callback) error

	// CreateVolume provisions a network-attached volume.
	CreateVolume(sizeGB int) (*Volume, error)
	// AttachVolume attaches a detached volume to a running instance.
	AttachVolume(vol VolumeID, inst InstanceID, cb Callback) error
	// DetachVolume detaches an attached volume.
	DetachVolume(vol VolumeID, cb Callback) error
	// DeleteVolume destroys a detached volume.
	DeleteVolume(vol VolumeID) error

	// AllocateIP reserves a fresh private address from the VPC pool.
	AllocateIP() (Addr, error)
	// AssignIP attaches a reserved address to a running instance
	// (modelled as attaching a network interface carrying it).
	AssignIP(inst InstanceID, addr Addr, cb Callback) error
	// UnassignIP detaches an address from an instance, making it
	// reassignable elsewhere (the migration re-plumbing of §3.4).
	UnassignIP(inst InstanceID, addr Addr, cb Callback) error
	// ReleaseIP returns an unassigned address to the pool.
	ReleaseIP(addr Addr) error

	// Instance returns the current view of an instance.
	Instance(id InstanceID) (*Instance, error)
	// OnRevocationWarning registers a listener for spot warnings. Multiple
	// listeners receive every warning in registration order.
	OnRevocationWarning(func(RevocationWarning))

	// AccruedCost reports the total rental charge for an instance so far
	// (or through termination): fixed-rate for on-demand, the integral of
	// the market price for spot.
	AccruedCost(id InstanceID) (USD, error)
}

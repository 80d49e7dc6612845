// Package simkit provides a deterministic discrete-event simulation kernel:
// a virtual clock, an event scheduler, and seeded random distributions.
//
// All SpotCheck substrates (the simulated IaaS platform, the spot market,
// backup servers, migrations) advance on a single simkit.Scheduler, so the
// multi-month policy simulations behind the paper's §6 evaluation (Figures
// 10-12, Table 3) run deterministically in milliseconds of real time, and
// any run reproduces exactly from its seed.
//
// The scheduler's pending queue is a monotone radix heap over 4-bit digits
// (see Scheduler): an event is filed by the highest digit in which its time
// differs from the queue's reference time and by its own value of that
// digit, and is re-sorted ("dealt") only when its bucket becomes the
// earliest and holds other entries too: at most 15 times in its life, and
// about once per fired event in spotsim's runs. Its entries hold no
// pointer, and events of one instant pop in the order they were scheduled.
//
// A run never blocks, so the scheduler yields the processor every 256
// events: with one processor the collector's mark worker runs only when
// the loop lets it, and while a mark is unfinished every pointer store
// pays the write barrier.
package simkit

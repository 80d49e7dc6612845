package simkit

// Dealt reports how many entries the queue has moved from one bucket to a
// lower one since the scheduler was built: its re-sorting work, which the
// storm test pins.
func (s *Scheduler) Dealt() uint64 { return s.dealt }

package objstore

// Granted returns the currently granted frontend bandwidth in bytes/s.
func (r *Remote) Granted() float64 { return r.dev.Share() * r.dev.Params().PeakBandwidth }

// Index returns the node index the store knows this remote by.
func (r *Remote) Index() int { return r.index }

// Pending returns the locally accumulated, not-yet-harvested traffic.
func (r *Remote) Pending() Stats { return r.local }

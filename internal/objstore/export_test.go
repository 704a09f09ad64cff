package objstore

// Granted returns the currently granted frontend bandwidth in bytes/s.
func (r *Remote) Granted() float64 { return r.dev.Share() * r.store.p.NodeBandwidth }

package core

// Stopped reports whether Stop was called.
func (s *Session) Stopped() bool { return s.stopped }

package core

import "tango/internal/dftestim"

// Estimator exposes the session's bandwidth estimator (read-only use).
func (s *Session) Estimator() *dftestim.Estimator { return s.est }

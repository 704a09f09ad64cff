package sim

// Done reports whether the process body has ended.
func (p *Proc) Done() bool { return p.done }

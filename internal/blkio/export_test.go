package blkio

// Remove deletes the named cgroup from the registry.
func (ctl *Controller) Remove(name string) { delete(ctl.groups, name) }

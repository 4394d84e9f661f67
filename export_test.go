package subzero

import "subzero/internal/kvstore"

// KVManager exposes the system's store manager to the external tests,
// which plant and inspect raw hashtable values through it.
func (s *System) KVManager() *kvstore.Manager { return s.manager }

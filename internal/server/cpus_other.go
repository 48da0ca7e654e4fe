//go:build !linux

package server

// allowedCPUs reports no CPUs where the platform offers no affinity
// call, so executors are left where the runtime puts them.
func allowedCPUs() []int { return nil }

func pinThread(cpu int) (unpin func()) { return func() {} }

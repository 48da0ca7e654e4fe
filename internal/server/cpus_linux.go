//go:build linux

package server

import (
	"syscall"
	"unsafe"
)

// cpuMask is a Linux cpu_set_t: one bit per CPU, 1024 CPUs.
type cpuMask [16]uint64

func getAffinity(m *cpuMask) bool {
	_, _, e := syscall.Syscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	return e == 0
}

func setAffinity(m *cpuMask) bool {
	_, _, e := syscall.Syscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	return e == 0
}

// allowedCPUs lists the CPUs the calling thread may run on, or nil if
// the kernel does not say.
func allowedCPUs() []int {
	var m cpuMask
	if !getAffinity(&m) {
		return nil
	}
	var cpus []int
	for i := 0; i < len(m)*64; i++ {
		if m[i/64]&(1<<(i%64)) != 0 {
			cpus = append(cpus, i)
		}
	}
	return cpus
}

// pinThread binds the calling OS thread to cpu, which moves it there
// at once, and returns a function that gives the thread its previous
// affinity back. The caller must hold the thread (runtime.LockOSThread)
// from the pin until after the unpin.
func pinThread(cpu int) (unpin func()) {
	var own, one cpuMask
	if !getAffinity(&own) {
		return func() {}
	}
	one[cpu/64] = 1 << (cpu % 64)
	if !setAffinity(&one) {
		return func() {}
	}
	return func() { setAffinity(&own) }
}

//go:build linux

package server

import (
	"bytes"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// currentCPU reads the CPU the calling thread last ran on, field 39
// of /proc/thread-self/stat.
func currentCPU(t *testing.T) int {
	b, err := os.ReadFile("/proc/thread-self/stat")
	if err != nil {
		t.Skipf("no /proc/thread-self/stat: %v", err)
	}
	// The command name (field 2) may hold spaces; count from its ')'.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	cpu, err := strconv.Atoi(f[39-3])
	if err != nil {
		t.Fatalf("parse /proc/thread-self/stat: %v", err)
	}
	return cpu
}

// TestPinThreadPinsAndUnpins checks the executor pinning: the thread
// runs on the CPU it is pinned to, may run nowhere else, and has its
// own affinity mask back after the unpin.
func TestPinThreadPinsAndUnpins(t *testing.T) {
	cpus := allowedCPUs()
	if len(cpus) < 2 {
		t.Skipf("process may run on %d CPU(s); nothing to pin", len(cpus))
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var before cpuMask
	if !getAffinity(&before) {
		t.Fatal("sched_getaffinity failed")
	}
	for _, cpu := range cpus {
		unpin := pinThread(cpu)
		if got := currentCPU(t); got != cpu {
			t.Errorf("pinThread(%d): thread runs on CPU %d", cpu, got)
		}
		var pinned, one cpuMask
		one[cpu/64] = 1 << (cpu % 64)
		if !getAffinity(&pinned) || pinned != one {
			t.Errorf("pinThread(%d) left affinity %x", cpu, pinned)
		}
		unpin()
		var after cpuMask
		if !getAffinity(&after) || after != before {
			t.Fatalf("unpin after pinThread(%d) left affinity %x, want %x", cpu, after, before)
		}
	}
}

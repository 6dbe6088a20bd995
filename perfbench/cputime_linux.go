//go:build linux

package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// clockThreadCPUTime is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTime = 3

// threadCPU returns the calling OS thread's CPU time. paper-batch times
// its passes with it, locked to one thread: the passes are computation
// that never blocks, so on an idle machine this equals wall time, while
// on a shared VM it leaves out the time the host ran other tenants,
// which the kernel accounts as steal.
func threadCPU() (time.Duration, error) {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, fmt.Errorf("clock_gettime(CLOCK_THREAD_CPUTIME_ID): %w", errno)
	}
	return time.Duration(ts.Nano()), nil
}

package main

import (
	"syscall"
	"time"
)

// preciseSleep blocks the calling thread in nanosleep(2): the runtime's
// timers wake up to a millisecond late on Linux, which at serving rates
// would dwarf the latencies being measured. nanosleep wakes within
// about 100 µs.
func preciseSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(d.Nanoseconds())
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// cpuTime returns the user and system CPU time the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

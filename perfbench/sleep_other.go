//go:build !linux

package main

import (
	"runtime/metrics"
	"time"
)

func preciseSleep(d time.Duration) { time.Sleep(d) }

// cpuTime returns the CPU time the Go runtime accounts to the process
// (user code, GC and scavenging; idle time excluded).
func cpuTime() time.Duration {
	s := []metrics.Sample{{Name: "/cpu/classes/total:cpu-seconds"}, {Name: "/cpu/classes/idle:cpu-seconds"}}
	metrics.Read(s)
	return time.Duration((s[0].Value.Float64() - s[1].Value.Float64()) * float64(time.Second))
}

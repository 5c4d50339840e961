package main

import (
	"syscall"
	"time"
)

// cpuTime is the process's user+system CPU time in seconds.
func cpuTime() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSec(ru.Utime) + tvSec(ru.Stime)
}

func tvSec(tv syscall.Timeval) float64 {
	return float64(time.Duration(tv.Sec)*time.Second+time.Duration(tv.Usec)*time.Microsecond) / 1e9
}

// peakRSSMB is the process's peak resident set size in MiB (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile is the q-quantile of xs by linear interpolation between order
// statistics; NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ms and secs convert durations for the metric units.
func ms(d time.Duration) float64   { return float64(d) / float64(time.Millisecond) }
func secs(d time.Duration) float64 { return d.Seconds() }

// selfCPU is this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostCPU is a reading of /proc/stat's CPU time, summed over the CPUs:
// the time the kernel spent running anything (busy) and the time the
// hypervisor held a CPU that wanted to run (steal).
type hostCPU struct{ busy, steal time.Duration }

func readHostCPU() hostCPU {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostCPU{}
	}
	var v [8]time.Duration // user nice system idle iowait irq softirq steal
	for i := range v {
		ticks, err := strconv.ParseUint(f[i+1], 10, 64)
		if err != nil {
			return hostCPU{}
		}
		v[i] = time.Duration(ticks) * (time.Second / 100) // USER_HZ
	}
	return hostCPU{busy: v[0] + v[1] + v[2] + v[5] + v[6], steal: v[7]}
}

// stealShare is the share of the CPU time the machine wanted between two
// readings that the hypervisor gave to other guests instead: steal /
// (busy + steal). It is 0 without steal accounting.
func stealShare(a, b hostCPU) float64 {
	busy, steal := b.busy-a.busy, b.steal-a.steal
	if busy <= 0 || steal <= 0 {
		return 0
	}
	return float64(steal) / float64(busy+steal)
}

// netOfSteal is wall time of work that ran while a share of the machine's
// CPU time was stolen, as it would have read had the machine had its CPUs
// to itself: wall × (1 − share). On a shared host the hypervisor's steal
// moves a wall-clock interval by tens of percent from one minute to the
// next while the work done stays the same.
func netOfSteal(wall time.Duration, share float64) time.Duration {
	return time.Duration(float64(wall) * (1 - share))
}

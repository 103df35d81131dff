package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// environment is the block every output document carries, so that two
// runs can be told apart as "same host, same settings" or not before
// their numbers are compared.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	LoadAvg    string `json:"loadavg_at_start"`
	// KeepAwake is the scheduling class the keep-awake children (awake.go)
	// obtained: "idle" (SCHED_IDLE) or "nice19".
	KeepAwake string `json:"keep_awake"`
	// StealShare is the share of all CPU time, over the run, that the
	// hypervisor gave to other guests (the steal column of /proc/stat): the
	// host's slow stretches seen from inside.
	StealShare float64 `json:"steal_share"`
}

// fixProcs pins the shape the benchmark is sized for: min(nproc, 2)
// scheduler threads, whatever the host offers.
func fixProcs() environment {
	n := runtime.NumCPU()
	procs := n
	if procs > 2 {
		procs = 2
	}
	runtime.GOMAXPROCS(procs)
	return environment{
		NProc:      n,
		GOMAXPROCS: procs,
		GoVersion:  runtime.Version(),
		Kernel:     firstLine("/proc/sys/kernel/osrelease"),
		LoadAvg:    firstLine("/proc/loadavg"),
	}
}

// cpuTicks is the steal column and the sum of all columns of the first
// line of /proc/stat; zeros if it cannot be read.
func cpuTicks() (steal, total float64) {
	f := strings.Fields(firstLine("/proc/stat"))
	for i, s := range f {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			continue // the leading "cpu"
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

func firstLine(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	s, _, _ := strings.Cut(string(b), "\n")
	return s
}

// cpuTime is the process's user+system CPU so far. The servers run in
// this process, so the figure covers client, router and server alike.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set in MiB: VmHWM of
// /proc/self/status, the high-water mark of this process's own address
// space. getrusage's ru_maxrss would not do: a child process starts with
// its parent's peak.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	_, rest, ok := strings.Cut(string(b), "VmHWM:")
	if ok {
		var kb float64
		if _, err := fmt.Sscanf(rest, "%f kB", &kb); err == nil {
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

package main

import (
	"bufio"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile returns the p-th percentile (0..1) of v by linear
// interpolation between order statistics; v is sorted in place. Empty
// input gives 0.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	pos := p * float64(len(v)-1)
	lo := int(pos)
	if lo >= len(v)-1 {
		return v[len(v)-1]
	}
	return v[lo] + (pos-float64(lo))*(v[lo+1]-v[lo])
}

func median(v []float64) float64 { return percentile(append([]float64(nil), v...), 0.5) }

// iqr is the distance between the first and third quartile as Python's
// statistics.quantiles(v, n=4) gives them (the exclusive method), so a
// segment spread printed here is comparable with the run-to-run spread the
// acceptance check computes.
func iqr(v []float64) float64 {
	n := len(v)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k*(n+1)) / 4 // 1-based rank
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return q(3) - q(1)
}

// procSnapshot is the process-wide accounting read at segment boundaries.
type procSnapshot struct {
	at         time.Time
	cpu        time.Duration // user+sys
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
	gcPause    time.Duration
	logins     int64
}

func takeSnapshot(logins int64) procSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSnapshot{
		at: time.Now(), cpu: cpuTime(), logins: logins,
		mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc,
		gcCycles: ms.NumGC, gcPause: time.Duration(ms.PauseTotalNs),
	}
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(rest, "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// dirBytes sums the sizes of the regular files under dir; a missing
// directory (in-memory stores) is 0.
func dirBytes(dir string) int64 {
	var total int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if fi, err := d.Info(); err == nil {
				total += fi.Size()
			}
		}
		return nil
	})
	return total
}

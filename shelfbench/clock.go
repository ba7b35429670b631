package main

import (
	"os"
	"strconv"
	"strings"
	"time"
)

// The machines this benchmark runs on are shared with other tenants, whose
// load came and went over minutes and, while it lasted, halved the CPU
// time the benchmark got. So timed intervals are measured in host seconds
// the benchmark had the CPUs: wall time minus the time its threads sat
// runnable in the kernel's run queue waiting for a CPU someone else held
// (Linux schedstat), spread over the CPUs. How much was removed is printed
// as host.wait_frac.

// stamp is a point on the benchmark's clock.
type stamp struct {
	wall    time.Time
	threads map[string]threadTimes
}

// threadTimes are one thread's time on a CPU and time runnable but
// waiting for one.
type threadTimes struct{ cpu, delay time.Duration }

func now() stamp { return stamp{wall: time.Now(), threads: schedTimes()} }

// since returns the seconds from s to now with the run-queue wait removed,
// and the raw wall-clock seconds. The wait removed is the threads' summed
// run-queue wait, capped by the CPU capacity the process left unused: the
// runtime's helper threads also wait in the queue, but while the workers
// ran their waits cost nothing.
func since(s stamp, cpus int) (eff, wall float64) {
	n := now()
	wall = n.wall.Sub(s.wall).Seconds()
	var ran, waited float64
	for id, t := range n.threads {
		p := s.threads[id]
		ran += (t.cpu - p.cpu).Seconds()
		waited += (t.delay - p.delay).Seconds()
	}
	lost := min(waited, max(float64(cpus)*wall-ran, 0))
	return wall - lost/float64(cpus), wall
}

// schedTimes reads every thread's /proc/self/task/*/schedstat (time on a
// CPU and run-queue wait, in nanoseconds). It is empty where schedstat is
// unavailable, which leaves wall time unchanged.
func schedTimes() map[string]threadTimes {
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return nil
	}
	out := make(map[string]threadTimes, len(tasks))
	for _, t := range tasks {
		b, err := os.ReadFile("/proc/self/task/" + t.Name() + "/schedstat")
		if err != nil {
			continue // the thread exited
		}
		if f := strings.Fields(string(b)); len(f) >= 2 {
			cpu, _ := strconv.ParseInt(f[0], 10, 64)
			delay, _ := strconv.ParseInt(f[1], 10, 64)
			out[t.Name()] = threadTimes{time.Duration(cpu), time.Duration(delay)}
		}
	}
	return out
}

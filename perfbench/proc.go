package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// parseVmHWM returns the peak resident set size in bytes from the
// contents of /proc/<pid>/status.
func parseVmHWM(data []byte) (int64, error) {
	for _, line := range bytes.Split(data, []byte("\n")) {
		rest, ok := bytes.CutPrefix(line, []byte("VmHWM:"))
		if !ok {
			continue
		}
		f := bytes.Fields(rest)
		if len(f) != 2 || string(f[1]) != "kB" {
			return 0, fmt.Errorf("proc status: malformed VmHWM line %q", line)
		}
		kb, err := strconv.ParseInt(string(f[0]), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc status: %w", err)
		}
		return kb << 10, nil
	}
	return 0, fmt.Errorf("proc status: no VmHWM line")
}

// resetPeakRSS restarts this process's VmHWM from its current RSS, so
// the next reading is the peak of what ran in between.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// selfRSS reads this process's VmHWM in MiB.
func selfRSS() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	b, err := parseVmHWM(data)
	return float64(b) / (1 << 20), err
}

var epoch = time.Now()

// wallClock is the monotonic time since the process started.
func wallClock() time.Duration { return time.Since(epoch) }

// cpuClock is this process's CPU time, summed over its threads: work
// the program does on any goroutine counts, and time the host runs
// something else on the vCPU does not.
func cpuClock() time.Duration {
	var ts syscall.Timespec
	const clockProcessCPUTime = 2
	if _, _, errno := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(errno) // CLOCK_PROCESS_CPUTIME_ID exists on every supported kernel
	}
	return time.Duration(ts.Nano())
}

// threadClock is the CPU time of thread tid of this process.
func threadClock(tid int) time.Duration {
	// The kernel's clock id for a thread's CPU clock:
	// MAKE_THREAD_CPUCLOCK(tid, CPUCLOCK_SCHED).
	const perThread, sched = 4, 2
	id := int32(^uint32(tid)<<3) | perThread | sched
	var ts syscall.Timespec
	if _, _, errno := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, uintptr(int(id)), uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Errorf("CPU clock of thread %d: %w", tid, errno)) // the spinner threads live until stopped
	}
	return time.Duration(ts.Nano())
}

// blocks counts the times the calling thread has blocked: its
// voluntary context switches. The caller stays locked to its thread
// between two readings.
func blocks() int64 {
	var ru syscall.Rusage
	const rusageThread = 1
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		panic(err) // RUSAGE_THREAD with a valid pointer cannot fail
	}
	return ru.Nvcsw
}

// maxBlockRate is how often, per millisecond of CPU time, the thread
// running the CPU-timed regions of a run may block. The CPU clock does
// not count time spent waiting, so a region that waited for another
// goroutine, a lock or I/O would read faster than it ran; the run
// fails instead. The Go runtime blocks the thread now and then: 0.1 to
// 0.3 times per ms in paper-static, whose ops allocate and collect, and
// in serve-live's restarts, and 0.01 to 0.02 in the sim workloads. An
// op that waited once per round would block 8 times per ms or more.
const maxBlockRate = 2

// cpuTimer times single-threaded regions of a run on cpuClock and
// counts how often the calling thread blocked inside them. The caller
// stays locked to its thread.
type cpuTimer struct {
	spin            *spinners // their CPU time is not the program's
	cpu, cpu0       time.Duration
	blocks, blocks0 int64
}

// now reads the process CPU clock, less what the spinners used.
func (t *cpuTimer) now() time.Duration { return cpuClock() - t.spin.cpu() }

func (t *cpuTimer) start() { t.cpu0, t.blocks0 = t.now(), blocks() }

// stop ends a region and returns its CPU time.
func (t *cpuTimer) stop() time.Duration {
	d := t.now() - t.cpu0
	t.cpu += d
	t.blocks += blocks() - t.blocks0
	return d
}

// check fails the run when the timed regions blocked more than
// maxBlockRate times per ms of CPU.
func (t *cpuTimer) check() error {
	fmt.Fprintf(os.Stderr, "perfbench: %d blocks in %.1f ms of CPU\n", t.blocks, ms(t.cpu))
	if float64(t.blocks) > maxBlockRate*ms(t.cpu) {
		return checkf("the timed thread blocked %d times in %.0f ms of CPU time; a region timed on the CPU clock must not wait",
			t.blocks, ms(t.cpu))
	}
	return nil
}

package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// spinners keep vCPUs from halting. A halted vCPU waits for the host
// to wake it, and on a busy host that wait is what varies from run to
// run: it set the tail of every two-worker barrier.
// Each spinner is an idle-priority thread, which any other runnable
// thread preempts at once.
type spinners struct {
	done  atomic.Bool
	wg    sync.WaitGroup
	procs int
	mu    sync.Mutex
	tids  []int
}

// keepAwake starts n spinners. They hold n Ps, so GOMAXPROCS grows by
// n until stop. It fails if a spinner cannot drop to idle priority,
// where it would compete with the work it is meant to make way for.
func keepAwake(n int) (*spinners, error) {
	s := &spinners{procs: runtime.GOMAXPROCS(0)}
	runtime.GOMAXPROCS(s.procs + n)
	errs := make(chan error, n)
	s.wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer s.wg.Done()
			// Exiting while locked retires the thread, so no goroutine
			// ever runs on it at idle priority afterwards.
			runtime.LockOSThread()
			var param struct{ priority int32 }
			const schedIdle = 5
			if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
				errs <- fmt.Errorf("spinner: SCHED_IDLE: %w", errno)
				return
			}
			s.mu.Lock()
			s.tids = append(s.tids, syscall.Gettid())
			s.mu.Unlock()
			errs <- nil
			for !s.done.Load() {
			}
		}()
	}
	var err error
	for i := 0; i < n; i++ {
		if e := <-errs; e != nil && err == nil {
			err = e
		}
	}
	if err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

func (s *spinners) stop() {
	s.done.Store(true)
	s.wg.Wait()
	runtime.GOMAXPROCS(s.procs)
}

// cpu is the CPU time the spinners have used so far. A nil *spinners
// has used none.
func (s *spinners) cpu() time.Duration {
	if s == nil {
		return 0
	}
	var total time.Duration
	for _, tid := range s.tids {
		total += threadClock(tid)
	}
	return total
}

package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// The reference kernel measures how fast the host runs memory-bound
// code at the moment, so that a run can state its unit rate in host
// speed rather than in wall seconds. On a host shared with other
// tenants the speed of the memory system drifts by tens of percent over
// minutes, and the workloads here (forks, cold boots, allocation and GC)
// drift with it. The kernel is fixed code of the benchmark, independent
// of the simulator, so a change to the simulator moves the workload's
// time but not the kernel's.
//
// The kernel does refSteps read-modify-writes at pseudo-random word
// offsets of a buffer larger than the per-core L2 cache. Of the kernels
// tried against tournament and mscan-pipeline unit times on a 2-vCPU
// Xeon (random access over 2, 4, 8, 16 and 64 MB, pointer chasing,
// large copies, an ALU loop), random access over 8 MB tracked the
// workloads' drift best.
const (
	refBufBytes = 8 << 20
	refSteps    = 3_000_000
	// refStepsPerRefSecond defines the reference second: the time the
	// host takes for this many kernel steps, about one wall second on
	// that Xeon.
	refStepsPerRefSecond = 200_000_000
	// refEvery is the run time between kernel runs; the kernel takes
	// about 5% of a run.
	refEvery = 250 * time.Millisecond
)

// refKernel holds the kernel's buffer. The buffer is mapped outside the
// Go heap so that it does not raise the GC's heap target, which would
// make the workloads collect less often than they do on their own.
type refKernel struct {
	buf  []uint64
	sink uint64
}

func newRefKernel() (*refKernel, error) {
	b, err := syscall.Mmap(-1, 0, refBufBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map reference buffer: %w", err)
	}
	k := &refKernel{buf: unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), refBufBytes/8)}
	k.run() // fault the pages in
	return k, nil
}

// run executes the kernel once and returns its wall time.
func (k *refKernel) run() time.Duration {
	start := time.Now()
	x := k.sink | 1
	mask := uint64(len(k.buf) - 1)
	for range refSteps {
		x = x*6364136223846793005 + 1442695040888963407
		k.buf[(x>>20)&mask] += x
	}
	k.sink = x
	return time.Since(start)
}

// close unmaps the buffer.
func (k *refKernel) close() error {
	b := unsafe.Slice((*byte)(unsafe.Pointer(&k.buf[0])), refBufBytes)
	k.buf = nil
	return syscall.Munmap(b)
}

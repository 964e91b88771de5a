package main

import (
	"math/bits"
	"syscall"
	"time"
)

// The reference kernel. The benchmark shares a host with other tenants,
// and for seconds to minutes at a time they slow it to as little as half
// its speed: they contend for the cores it runs on, so even the CPU time
// of fixed work grows. The kernel is fixed work of the simulator's own
// kind, kept here so that no change to the simulator can change it: an
// interpreter for a small random register program whose loads and stores
// go through a direct-mapped tag array. Run between timed spans, its CPU
// time measures how fast the host runs at that moment, and dividing the
// spans by it cancels most of the host's speed. On the 2-vCPU Xeon
// reference host, in one slow phase, the kernel and a paper-long run both
// slowed by about 1.9x. In five runs of paper-long at a busy hour the
// CPU-time rate spread (interquartile range over median) by 0.77 and the
// rate in reference seconds by 0.16; in ten runs of each workload at a
// calmer hour, by 0.08 to 0.14 and by 0.03 to 0.07.

// refNominal is the CPU time of one kernel run on the reference host at
// full speed. A reference second is a second of CPU time scaled by
// refNominal over the kernel's time at the moment, so on that host at
// full speed a reference second is a second.
const refNominal = 9500 * time.Microsecond

const (
	refSteps   = 1 << 22 // instructions interpreted per kernel run
	refProgLen = 512
	refMemMask = 1<<14 - 1
)

type refInst struct {
	op, rd, rs, rt uint8
	imm            uint32
}

type refKernel struct {
	prog []refInst
	mem  [refMemMask + 1]uint32
	tags [1024]uint32
	sink uint32 // keeps the work observable
}

func newRefKernel() *refKernel {
	k := &refKernel{prog: make([]refInst, refProgLen)}
	x := uint32(2463534242)
	for i := range k.prog {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		k.prog[i] = refInst{op: uint8(x % 9), rd: uint8(x>>4) & 15, rs: uint8(x>>8) & 15, rt: uint8(x>>12) & 15, imm: x >> 16}
	}
	return k
}

// time runs the kernel once and returns the CPU time it took.
func (k *refKernel) time() time.Duration {
	start := cpuTime()
	var r [16]uint32
	pc := 0
	for step := 0; step < refSteps; step++ {
		in := &k.prog[pc]
		pc++
		switch in.op {
		case 0:
			r[in.rd] = r[in.rs] + r[in.rt]
		case 1:
			r[in.rd] = r[in.rs] ^ in.imm
		case 2:
			a := (r[in.rs] + in.imm) & refMemMask
			if set := a & 1023; k.tags[set] != a>>10 {
				k.tags[set] = a >> 10
				r[0]++
			}
			r[in.rd] = k.mem[a]
		case 3:
			a := (r[in.rs] + in.imm) & refMemMask
			if set := a & 1023; k.tags[set] != a>>10 {
				k.tags[set] = a >> 10
				r[0]++
			}
			k.mem[a] = r[in.rt]
		case 4:
			if r[in.rs]&1 == 0 {
				pc = int(in.imm) % refProgLen
			}
		case 5:
			r[in.rd] = r[in.rs] * (in.imm | 1)
		case 6:
			r[in.rd] = r[in.rs] >> (in.imm & 31)
		case 7:
			r[in.rd] = bits.RotateLeft32(r[in.rs], int(in.imm&31))
		default:
			r[in.rd] = r[in.rs] - r[in.rt]
		}
		if pc == refProgLen {
			pc = 0
		}
	}
	k.sink += r[0] + r[1]
	return cpuTime() - start
}

// refSeconds converts cpu, CPU time spent between or beside runs of the
// kernel that took the given times, into reference seconds.
func refSeconds(cpu time.Duration, kernel ...time.Duration) float64 {
	var sum time.Duration
	for _, k := range kernel {
		sum += k
	}
	return cpu.Seconds() * refNominal.Seconds() * float64(len(kernel)) / sum.Seconds()
}

// cpuTime returns the user plus system CPU time charged to this process
// over all its threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
